"""PSNR/MSE: definitions, caps, aggregation across planes and frames."""

import math

import numpy as np
import pytest

from repro.metrics.psnr import PSNR_CAP_DB, mse, psnr
from repro.video.frame import Frame
from repro.video.video import Video


class TestMse:
    def test_zero_for_identical(self):
        a = np.full((4, 4), 7, dtype=np.uint8)
        assert mse(a, a) == 0.0

    def test_known_value(self):
        a = np.zeros((2, 2), dtype=np.uint8)
        b = np.full((2, 2), 3, dtype=np.uint8)
        assert mse(a, b) == pytest.approx(9.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((2, 3)))


def _flat(value):
    """One 16x16 frame with every plane at ``value``."""
    return Video([Frame.blank(16, 16, luma=value, chroma=value)], fps=10)


class TestPlanePsnr:
    def test_identical_hits_cap(self):
        assert psnr(_flat(100), _flat(100)) == PSNR_CAP_DB

    def test_formula(self):
        expected = 10 * math.log10(255**2 / 100.0)
        assert psnr(_flat(0), _flat(10)) == pytest.approx(expected)

    def test_monotone_in_error(self):
        assert psnr(_flat(0), _flat(2)) > psnr(_flat(0), _flat(20))

    def test_worst_case_positive(self):
        assert psnr(_flat(0), _flat(255)) == pytest.approx(0.0, abs=1e-9)


class TestFrameAndVideo:
    def test_frame_psnr_averages_planes(self):
        ref = Frame.blank(16, 16, luma=100, chroma=128)
        # Only luma differs by 10.
        test = Frame.from_planes(
            np.full((16, 16), 110.0), np.full((8, 8), 128.0), np.full((8, 8), 128.0)
        )
        luma_only = 10 * math.log10(255**2 / 100.0)
        expected = (luma_only + 2 * PSNR_CAP_DB) / 3.0
        assert psnr(Video([ref], fps=10), Video([test], fps=10)) == pytest.approx(
            expected
        )

    def test_video_psnr_identical(self, natural_video):
        assert psnr(natural_video, natural_video) == PSNR_CAP_DB

    def test_video_psnr_accumulates_mse_not_db(self):
        # One ruined frame out of two must dominate: global MSE, not mean dB.
        clean = Frame.blank(16, 16, luma=100)
        ruined = Frame.blank(16, 16, luma=200)
        ref = Video([clean, clean], fps=10)
        test = Video([clean, ruined], fps=10)
        luma_psnr = 10 * math.log10(255**2 / (100.0**2 / 2))
        expected = (luma_psnr + 2 * PSNR_CAP_DB) / 3.0
        assert psnr(ref, test) == pytest.approx(expected)

    def test_video_count_mismatch(self, natural_video):
        with pytest.raises(ValueError, match="frame count"):
            psnr(natural_video, natural_video[:-1])

    def test_video_resolution_mismatch(self):
        a = Video([Frame.blank(16, 16)], fps=10)
        b = Video([Frame.blank(32, 16)], fps=10)
        with pytest.raises(ValueError, match="resolution"):
            psnr(a, b)
