"""The numpy image filters against the scipy calls they replaced.

``repro.video.filters`` must be bit-identical to ``scipy.ndimage`` --
every synthetic clip, SSIM value and golden bitstream was produced through
scipy -- so equality here is ``np.array_equal``, never a tolerance.
scipy is a test dependency only: this module uses it as the oracle.
"""

import numpy as np
import pytest
from scipy import ndimage

from repro.video.filters import gaussian_blur, zoom_linear


def _shapes(seed, count, low, high):
    rng = np.random.default_rng(seed)
    return [tuple(map(int, rng.integers(low, high, size=2))) for _ in range(count)]


@pytest.mark.parametrize("sigma", [0.0, 0.1, 0.6, 1.5, 2.0])
def test_gaussian_blur_matches_scipy(sigma):
    # 2x2 up to 140x140, planes shorter than the radius (2 at sigma 0.6,
    # 6 at 1.5, 8 at 2.0) included: their padding reflects more than once.
    # Sigma 0.1 has radius 0 (one tap), and scipy skips sigma 0 altogether.
    rng = np.random.default_rng(int(sigma * 10))
    shapes = [(2, 2), (3, 17), (17, 3), (8, 8), (9, 5)] + _shapes(1, 60, 2, 141)
    for shape in shapes:
        plane = rng.uniform(0.0, 255.0, size=shape)
        expected = ndimage.gaussian_filter(plane, sigma=sigma, mode="reflect")
        got = gaussian_blur(plane, sigma)
        # A strided view would change the order a later np.mean sums in.
        assert got.flags.c_contiguous
        assert np.array_equal(got, expected), shape


def test_zoom_linear_matches_scipy():
    rng = np.random.default_rng(2)
    for (grid_h, grid_w), (height, width) in zip(
        _shapes(3, 400, 2, 40), _shapes(4, 400, 2, 300)
    ):
        coarse = rng.uniform(0.0, 255.0, size=(grid_h, grid_w))
        factors = (height / grid_h, width / grid_w)
        expected = ndimage.zoom(coarse, factors, order=1)
        got = zoom_linear(coarse, (height, width))
        assert np.array_equal(got, expected), (
            grid_h, grid_w, height, width,
        )


def test_zoom_linear_zeroes_an_overshooting_last_sample():
    # 4 -> 188 rows and 6 -> 148 columns: k * (n_in - 1) / (n_out - 1)
    # rounds one ulp past the last input sample at k = n_out - 1, and
    # scipy's mode="constant" makes that whole row and column 0.
    coarse = np.random.default_rng(6).uniform(1.0, 255.0, size=(4, 6))
    factors = (188 / 4, 148 / 6)
    expected = ndimage.zoom(coarse, factors, order=1)
    got = zoom_linear(coarse, (188, 148))
    assert not expected[-1].any() and not expected[:, -1].any()
    assert np.array_equal(got, expected)
