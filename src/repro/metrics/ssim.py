"""Structural similarity (SSIM), a perceptual quality alternative to PSNR.

The paper mentions SSIM (Wang et al. 2004) as one of the perceptual metrics
the video community considers, but standardizes on PSNR because uploads are
already distorted and there is no consensus perceptual metric.  We implement
SSIM anyway so users can report both.
"""

from __future__ import annotations

import numpy as np

from repro.video.filters import gaussian_blur
from repro.video.video import Video

__all__ = ["ssim", "ssim_video"]

_K1, _K2 = 0.01, 0.03
_L = 255.0
_C1 = (_K1 * _L) ** 2
_C2 = (_K2 * _L) ** 2


def ssim(reference: np.ndarray, test: np.ndarray, sigma: float = 1.5) -> float:
    """Mean SSIM between two planes, using a Gaussian window.

    Follows Wang et al.: local means, variances, and covariance are computed
    with a Gaussian filter (sigma 1.5, the reference implementation default)
    and combined with the standard stabilizing constants.
    """
    ref = np.asarray(reference, dtype=np.float64)
    out = np.asarray(test, dtype=np.float64)
    if ref.shape != out.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {out.shape}")
    if ref.ndim != 2:
        raise ValueError(f"SSIM operates on 2-D planes, got shape {ref.shape}")

    mu_x = gaussian_blur(ref, sigma)
    mu_y = gaussian_blur(out, sigma)
    mu_xx = mu_x * mu_x
    mu_yy = mu_y * mu_y
    mu_xy = mu_x * mu_y
    sigma_xx = gaussian_blur(ref * ref, sigma) - mu_xx
    sigma_yy = gaussian_blur(out * out, sigma) - mu_yy
    sigma_xy = gaussian_blur(ref * out, sigma) - mu_xy
    numerator = (2.0 * mu_xy + _C1) * (2.0 * sigma_xy + _C2)
    denominator = (mu_xx + mu_yy + _C1) * (sigma_xx + sigma_yy + _C2)
    return float(np.mean(numerator / denominator))


def ssim_video(reference: Video, test: Video, sigma: float = 1.5) -> float:
    """Mean luma SSIM across all frames of two videos."""
    if len(reference) != len(test):
        raise ValueError(f"frame count mismatch: {len(reference)} vs {len(test)}")
    if reference.resolution != test.resolution:
        raise ValueError(
            f"resolution mismatch: {reference.resolution} vs {test.resolution}"
        )
    scores = [
        ssim(ref.y, out.y, sigma=sigma) for ref, out in zip(reference, test)
    ]
    return float(np.mean(scores))
