"""Denoising prefilter."""

import numpy as np
import pytest

from repro.video.denoise import denoise_video
from repro.video.frame import Frame
from repro.video.synthesis import synthesize
from repro.video.video import Video


class TestDenoise:
    def test_geometry_preserved(self, natural_video):
        out = denoise_video(natural_video)
        assert out.resolution == natural_video.resolution
        assert len(out) == len(natural_video)
        assert out.fps == natural_video.fps

    def test_reduces_grain(self):
        noisy = synthesize("natural", 64, 48, 6, 12.0, seed=4, noise=4.0)
        clean = denoise_video(noisy, spatial_sigma=0.8)
        # High-frequency energy drops: neighbour-difference variance.
        def hf(video):
            return np.mean(
                [np.var(np.diff(f.y.astype(float), axis=1)) for f in video]
            )
        assert hf(clean) < hf(noisy)

    def test_improves_compressibility(self):
        """The paper's rationale: denoising cuts CRF-18 bits."""
        from repro.codec.encoder import encode

        noisy = synthesize("sports", 64, 48, 8, 12.0, seed=4, noise=3.0)
        clean = denoise_video(noisy, spatial_sigma=0.8, temporal_strength=0.5)
        bits_noisy = encode(noisy, config="veryfast", crf=20).total_bits
        bits_clean = encode(clean, config="veryfast", crf=20).total_bits
        assert bits_clean < bits_noisy

    def test_temporal_stage_skips_motion(self):
        a = Frame.blank(32, 32, luma=50)
        b = Frame.blank(32, 32, luma=200)  # a hard cut
        video = Video([a, b], fps=10)
        out = denoise_video(video, spatial_sigma=0.0, temporal_strength=0.8)
        # The moving (cut) pixels must not be blended toward frame 0.
        assert out[1].y[0, 0] == 200

    def test_temporal_stage_smooths_static_flicker(self):
        frames = [
            Frame.blank(32, 32, luma=100),
            Frame.blank(32, 32, luma=103),  # small flicker
        ]
        out = denoise_video(
            Video(frames, fps=10), spatial_sigma=0.0, temporal_strength=0.5
        )
        assert 100 <= out[1].y[0, 0] < 103

    def test_validation(self, natural_video):
        with pytest.raises(ValueError):
            denoise_video(natural_video, spatial_sigma=-1)
        with pytest.raises(ValueError):
            denoise_video(natural_video, temporal_strength=1.0)
        with pytest.raises(ValueError):
            denoise_video(natural_video, motion_threshold=0)
