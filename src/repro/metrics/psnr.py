"""Peak signal-to-noise ratio, the paper's quality metric.

The paper computes PSNR per plane (Y, Cb, Cr) across all frames and reports
the average YCbCr PSNR.  PSNR compares the per-pixel mean squared error
against the maximum pixel value (255 for 8-bit video):

    PSNR = 10 * log10(255^2 / MSE)

(The paper's inline formula ``10 log10(255 / sqrt(MSE))`` is a typesetting
slip -- it is off by a factor of two from the standard definition used by
every encoder the paper measures; we use the standard definition.)
"""

from __future__ import annotations

import math

import numpy as np

from repro.video.video import Video

__all__ = ["mse", "psnr", "PSNR_CAP_DB"]

#: PSNR reported for a mathematically infinite (identical-planes) comparison.
#: 100 dB is the conventional cap (ffmpeg reports "inf"; we stay numeric).
PSNR_CAP_DB = 100.0

_PEAK = 255.0


def mse(reference: np.ndarray, test: np.ndarray) -> float:
    """Mean squared error between two equally-shaped uint8 planes."""
    ref = np.asarray(reference, dtype=np.float64)
    out = np.asarray(test, dtype=np.float64)
    if ref.shape != out.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {out.shape}")
    return float(np.mean((ref - out) ** 2))


def psnr(reference: Video, test: Video) -> float:
    """Average YCbCr PSNR between two videos (the paper's quality number).

    The MSE of each plane is accumulated across all frames, converted to a
    per-plane PSNR, and the three plane PSNRs are averaged.  Accumulating
    MSE before the log (rather than averaging per-frame PSNRs) matches how
    ffmpeg's global PSNR is computed and keeps a single ruined frame from
    being hidden by many perfect ones.
    """
    if len(reference) != len(test):
        raise ValueError(
            f"frame count mismatch: {len(reference)} vs {len(test)}"
        )
    if reference.resolution != test.resolution:
        raise ValueError(
            f"resolution mismatch: {reference.resolution} vs {test.resolution}"
        )
    plane_errors = [0.0, 0.0, 0.0]
    for ref_frame, test_frame in zip(reference, test):
        for i, (r, t) in enumerate(zip(ref_frame.planes(), test_frame.planes())):
            plane_errors[i] += mse(r, t)
    n = len(reference)
    psnrs = []
    for error_sum in plane_errors:
        error = error_sum / n
        if error <= 0.0:
            psnrs.append(PSNR_CAP_DB)
        else:
            psnrs.append(min(PSNR_CAP_DB, 10.0 * math.log10(_PEAK * _PEAK / error)))
    return float(np.mean(psnrs))
