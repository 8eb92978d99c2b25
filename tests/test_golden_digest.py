"""Golden bitstream-digest regression tests.

The vectorization rule of this repo is *bit-identical or it does not
land*: batching a codec hot path across macroblocks/symbols must not move
a single bit of the output stream.  These tests pin the SHA-256 of the
bitstream produced for fixed seeded clips under configurations covering
every coding tool (CAVLC and CABAC, both container versions, log and full
search, sub-pel depths, RDOQ, the 16x16 transform, two references,
chroma sub-pel), so any rounding or reordering slip in a "pure
refactor" fails loudly here instead of silently changing every
downstream report.

The digests in ``tests/fixtures/golden_digests.json`` were generated by
the pre-vectorization (pure per-macroblock-loop) encoder (the screencast
cells later, by an encoder these tests had held bit-identical to it);
regenerate them only for an *intentional* bitstream format change, never
to make a refactor pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.codec.decoder import Decoder
from repro.codec.encoder import encode
from repro.codec.presets import EncoderConfig
from repro.metrics.psnr import psnr
from repro.video.synthesis import synthesize

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "golden_digests.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
#: ``mc_blocks`` / ``interp_halfpel`` of every cell on both sides, captured
#: at the commit before ``codec/reconstruct.py`` existed (when the skip copy
#: still took the chroma sub-pel path by accident and went uncounted).
MC_COUNTS = json.loads((GOLDEN_PATH.parent / "golden_mc_counts.json").read_text())

#: (clip key, synthesize args) -- fixed seeds, small enough to stay fast.
CLIPS = {
    "natural-64x48x8": ("natural", 64, 48, 8, 12.0, 11),
    "sports-80x48x10": ("sports", 80, 48, 10, 12.0, 5),
    # Mostly static: the only clip whose P frames carry skip macroblocks.
    "screencast-64x48x5": ("screencast", 64, 48, 5, 12.0, 3),
}

#: Configuration matrix: named presets plus tool combinations no preset
#: reaches (large transform + two references + chroma sub-pel; RPV1).
CONFIGS = {
    "ultrafast": "ultrafast",
    "medium": "medium",
    "slow": "slow",
    "veryslow": "veryslow",
    "placebo": "placebo",
    "hevc-tools": EncoderConfig(
        search_method="log",
        search_range=16,
        subpel_depth=2,
        me_iterations=6,
        entropy_coder="cabac",
        transform_size=16,
        rdoq=True,
        references=2,
        chroma_subpel=True,
    ),
    "medium-v1": EncoderConfig(container_version=1),
}

_ENCODE_CACHE = {}


def _encode(clip_key: str, cfg_key: str):
    key = (clip_key, cfg_key)
    if key not in _ENCODE_CACHE:
        content, w, h, n, fps, seed = CLIPS[clip_key]
        video = synthesize(content, w, h, n, fps, seed=seed)
        result = encode(video, config=CONFIGS[cfg_key], crf=28)
        _ENCODE_CACHE[key] = (result, Decoder().decode(result.bitstream))
    return _ENCODE_CACHE[key]


@pytest.mark.parametrize("clip_key", sorted(CLIPS))
@pytest.mark.parametrize("cfg_key", sorted(CONFIGS))
class TestGoldenDigests:
    def test_bitstream_digest_unchanged(self, clip_key, cfg_key):
        result, _ = _encode(clip_key, cfg_key)
        digest = hashlib.sha256(result.bitstream).hexdigest()
        assert digest == GOLDEN[f"{clip_key}/{cfg_key}"], (
            f"bitstream for {clip_key}/{cfg_key} changed; a codec refactor "
            f"must be bit-identical (see tests/test_golden_digest.py)"
        )

    def test_decode_matches_encoder_recon(self, clip_key, cfg_key):
        """The stream still decodes to exactly the encoder's reconstruction."""
        result, decode_result = _encode(clip_key, cfg_key)
        decoded = decode_result.video
        assert len(decoded) == len(result.recon)
        for got, want in zip(decoded, result.recon):
            np.testing.assert_array_equal(got.y, want.y)
            np.testing.assert_array_equal(got.u, want.u)
            np.testing.assert_array_equal(got.v, want.v)

    def test_reconstruction_work_agrees(self, clip_key, cfg_key):
        """One reconstruction, so both sides count the same work for it."""
        result, decode_result = _encode(clip_key, cfg_key)
        for kernel in ("idct", "dequant", "deblock_edge", "recon", "intra_pred"):
            assert result.counters.get(kernel) == decode_result.counters.get(
                kernel
            ), kernel

    def test_motion_compensation_counts_pinned(self, clip_key, cfg_key):
        """The skip copy is charged what it always was: one luma block (its
        chroma copy is uncounted on both sides, see DESIGN.md)."""
        result, decode_result = _encode(clip_key, cfg_key)
        want = MC_COUNTS[f"{clip_key}/{cfg_key}"]
        for side, counters in (
            ("encoder", result.counters),
            ("decoder", decode_result.counters),
        ):
            got = {kernel: counters.get(kernel) for kernel in want[side]}
            assert got == want[side], side


def test_matrix_has_skip_macroblocks():
    """Without them the pinned counts would not cover the skip copy."""
    result, _ = _encode("screencast-64x48x5", "medium")
    assert sum(stats.skip_blocks for stats in result.stats) > 0


def test_medium_crf28_natural_192x128_pinned():
    """One cell outside the matrix: more macroblocks and frames than any
    matrix clip, pinned to size, digest and quality."""
    clip = synthesize("natural", 192, 128, 12, 24.0, seed=11)
    result = encode(clip, config="medium", crf=28)
    assert len(result.bitstream) == 5422
    assert hashlib.sha256(result.bitstream).hexdigest() == (
        "b1afc315d00ce4ffb9fa1814acfbc20b75ae11431ab0cf84ab3ab50b0e2a5ec4"
    )
    assert round(psnr(clip, result.recon), 3) == 45.171


def test_golden_fixture_covers_matrix():
    """The fixture and the in-test matrix must not drift apart."""
    expected = {f"{c}/{k}" for c in CLIPS for k in CONFIGS}
    assert set(GOLDEN) == expected
    assert set(MC_COUNTS) == expected
