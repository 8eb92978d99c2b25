"""Multi-reference-frame prediction (the two-frame reference list)."""

import numpy as np
import pytest

from repro.codec.decoder import decode
from repro.codec.encoder import encode
from repro.codec.presets import EncoderConfig, preset
from repro.video.frame import Frame
from repro.video.synthesis import synthesize
from repro.video.video import Video


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="references"):
            EncoderConfig(references=3)
        with pytest.raises(ValueError, match="references"):
            EncoderConfig(references=0)

    def test_header_carries_reference_count(self):
        from repro.codec.bitstream import StreamHeader

        with pytest.raises(ValueError):
            StreamHeader(
                width=16, height=16, fps_num=10, fps_den=1, n_frames=1,
                transform_size=8, entropy_coder="cavlc", deblock=True,
                flat_quant=True, chroma_qp_offset=0, references=4,
            )


class TestRoundTrip:
    @pytest.mark.parametrize("content", ["natural", "sports", "gaming"])
    def test_two_ref_roundtrip(self, content):
        clip = synthesize(content, 64, 48, 8, 12.0, seed=6)
        cfg = preset("veryfast").derived(references=2)
        result = encode(clip, config=cfg, crf=28)
        assert decode(result.bitstream) == result.recon

    def test_two_ref_with_all_tools(self):
        clip = synthesize("sports", 64, 48, 8, 12.0, seed=6)
        cfg = preset("veryslow").derived(
            references=2, transform_size=16, chroma_subpel=True
        )
        result = encode(clip, config=cfg, crf=28)
        assert decode(result.bitstream) == result.recon


class TestBehaviour:
    def test_flicker_content_uses_older_reference(self):
        """Alternating A/B frames: frame t matches frame t-2, not t-1.

        The canonical case for a second reference: with one reference the
        encoder must code large residuals every frame; with two it can
        point at the matching picture.
        """
        from scipy import ndimage

        def textured(seed):
            r = np.random.default_rng(seed)
            g = ndimage.gaussian_filter(
                r.uniform(0, 255, size=(48, 64)), 1.5, mode="wrap"
            )
            y = np.clip((g - g.mean()) * 3.0 + 128.0, 0, 255)
            return Frame.from_planes(
                y, np.full((24, 32), 128.0), np.full((24, 32), 128.0)
            )

        a, b = textured(1), textured(2)
        video = Video([a, b, a, b, a, b, a, b], fps=10.0, name="flicker")
        base = preset("medium").derived(keyint=100, scene_cut=1e9)
        one = encode(video, config=base, crf=28)
        two = encode(video, config=base.derived(references=2), crf=28)
        assert two.total_bits < one.total_bits * 0.7
        assert decode(two.bitstream) == two.recon

    def test_second_reference_costs_search_work(self):
        clip = synthesize("gaming", 64, 48, 8, 12.0, seed=6)
        base = preset("medium")
        one = encode(clip, config=base, crf=28)
        two = encode(clip, config=base.derived(references=2), crf=28)
        assert two.counters.get("sad") > one.counters.get("sad")

    def test_av1_backend_registered(self):
        from repro.encoders import AV1Transcoder, get_transcoder

        backend = get_transcoder("av1")
        assert isinstance(backend, AV1Transcoder)
        assert backend.config.references == 2
