"""The intra wavefront walk against a raster per-macroblock oracle.

``FrameReconstructor.reconstruct_intra`` carries only block edges along
anti-diagonals whose raster indices step by ``cols - 1``; the oracle here
is the definition: macroblocks in raster order, each predicted by
:func:`repro.codec.predict.dc_predict` from the plane built so far.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.codec.decoder import Decoder
from repro.codec.encoder import encode
from repro.codec.instrumentation import Counters
from repro.codec.predict import dc_predict
from repro.codec.presets import EncoderConfig, preset
from repro.codec.reconstruct import FrameReconstructor
from repro.video.synthesis import synthesize

#: Edge per plane (Y, U, V) of one macroblock.
SIZES = (16, 8, 8)


def _residuals(rows, cols, seed):
    """Seeded ``(n, s, s)`` residuals per plane, wide enough to clip at 0
    and 255 whatever the predictor."""
    rng = np.random.default_rng(seed)
    return [
        rng.normal(0.0, 90.0, (rows * cols, size, size))
        + rng.choice([0.0, -300.0, 300.0], (rows * cols, size, size), p=[0.8, 0.1, 0.1])
        for size in SIZES
    ]


def _shift(dcs):
    """A residual term that depends on the predictor, as the encoder's does."""
    return np.floor(np.asarray(dcs) / 8.0) - 16.0


def _walk(rows, cols, base):
    recon = FrameReconstructor(16 * cols, 16 * rows, EncoderConfig())
    seen = []

    def residual(plane, sl, dcs):
        idx = np.arange(recon.n_mb)[sl]
        seen.append((plane, idx))
        if plane == 0:
            assert dcs.shape == (idx.size,)
            return base[0][idx] + _shift(dcs)[:, None, None]
        assert dcs.shape == (2, idx.size)
        pair = np.stack((base[1][idx], base[2][idx]))
        return pair + _shift(dcs)[..., None, None]

    counters = Counters()
    planes = recon.reconstruct_intra(residual, counters)
    return planes, counters, seen


def _raster_oracle(rows, cols, base):
    counters = Counters()
    planes = [np.zeros((rows * size, cols * size)) for size in SIZES]
    for i in range(rows * cols):
        r, c = divmod(i, cols)
        for plane, size, res in zip(planes, SIZES, base):
            y0, x0 = r * size, c * size
            dc = dc_predict(plane, y0, x0, size, counters)
            plane[y0 : y0 + size, x0 : x0 + size] = np.clip(
                (res[i] + _shift(dc)) + dc, 0, 255
            )
    return planes, counters


GRIDS = [(1, 1), (1, 5), (5, 1), (3, 7), (8, 12)]


@pytest.mark.parametrize("rows,cols", GRIDS)
def test_walk_matches_raster_oracle(rows, cols):
    base = _residuals(rows, cols, seed=rows * 100 + cols)
    got, counters, _ = _walk(rows, cols, base)
    want, oracle_counters = _raster_oracle(rows, cols, base)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    if rows * cols > 1:
        # The residuals really clip both ways.
        assert all((w == 0).any() and (w == 255).any() for w in want)
    assert counters.get("intra_pred") == oracle_counters.get("intra_pred")
    assert counters.get("intra_pred") == 3 * rows * cols
    assert counters.get("recon") == rows * cols


@pytest.mark.parametrize("rows,cols", GRIDS)
def test_walk_visits_each_block_once_per_step(rows, cols):
    """Two steps per anti-diagonal (luma, then the U/V pair), each over
    exactly that diagonal's blocks."""
    _, _, seen = _walk(rows, cols, _residuals(rows, cols, seed=0))
    assert [plane for plane, _ in seen] == [0, 1] * (rows + cols - 1)
    for k in range(rows + cols - 1):
        want = [r * cols + k - r for r in range(rows) if 0 <= k - r < cols]
        for plane, idx in seen[2 * k : 2 * k + 2]:
            assert idx.tolist() == want, (k, plane)


#: All-intra streams of one-macroblock-wide and one-macroblock-tall clips,
#: ``synthesize("sports", w, h, 3, 12.0, seed=5)`` with ``medium`` at
#: ``keyint=1``, CRF 28.  Recorded with the walk this module's oracle
#: replaced (per-block gathers from the plane), before the edge walk.
THIN_CLIPS = {
    (16, 48): (591, "913876d5e6ff7b794044e56055c4d7df3f3a73c6fe175482a00821ab21cd26a2"),
    (48, 16): (552, "3a90989d6087cd027f81025b4773ebeefa3fdf829f0d57d178026fd2462e03ef"),
}


@pytest.mark.parametrize("width,height", sorted(THIN_CLIPS))
def test_thin_all_intra_streams_pinned(width, height):
    clip = synthesize("sports", width, height, 3, 12.0, seed=5)
    result = encode(clip, config=preset("medium").derived(keyint=1), crf=28)
    size, digest = THIN_CLIPS[(width, height)]
    assert len(result.bitstream) == size
    assert hashlib.sha256(result.bitstream).hexdigest() == digest
    decoded = Decoder().decode(result.bitstream).video
    assert len(decoded) == len(result.recon) == 3
    for got, want in zip(decoded, result.recon):
        np.testing.assert_array_equal(got.y, want.y)
        np.testing.assert_array_equal(got.u, want.u)
        np.testing.assert_array_equal(got.v, want.v)
