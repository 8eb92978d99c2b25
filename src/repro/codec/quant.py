"""Quantization: the codec's only lossy step.

Transform coefficients are divided point-wise by a quantization matrix
scaled by the quantization step and rounded toward zero past a dead-zone.
Larger quantization parameters (QP) zero out more high-frequency
coefficients, improving compression at the cost of fidelity (Section 2.1).

QP follows the H.264 convention: the step size doubles every 6 QP,
``qstep = 2 ** ((qp - 4) / 6)``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "QP_MIN",
    "QP_MAX",
    "clamp_qp",
    "qp_to_qstep",
    "quant_matrix",
    "quantize",
    "dequantize",
    "rdoq_threshold",
]

QP_MIN = 0
QP_MAX = 51


def clamp_qp(qp: int) -> int:
    """``qp`` limited to the codable range."""
    return int(max(QP_MIN, min(QP_MAX, qp)))

#: Dead-zone rounding offset: inter residuals round at 1/3 like x264.
_DEADZONE = 1.0 / 3.0


def qp_to_qstep(qp: int) -> float:
    """Quantizer step size for a QP (doubles every 6 QP)."""
    if not QP_MIN <= qp <= QP_MAX:
        raise ValueError(f"qp must be in [{QP_MIN}, {QP_MAX}], got {qp}")
    return float(2.0 ** ((qp - 4) / 6.0))


@lru_cache(maxsize=None)
def quant_matrix(size: int, flat: bool = False) -> np.ndarray:
    """Per-frequency quantization weights for an ``S x S`` transform.

    The default (perceptual) matrix grows linearly with spatial frequency --
    a smooth HVS ramp in the spirit of the JPEG/MPEG matrices -- so high
    frequencies are quantized more coarsely.  ``flat=True`` gives uniform
    weighting (what x264 uses by default for inter blocks).
    """
    if size <= 0:
        raise ValueError(f"transform size must be positive, got {size}")
    if flat:
        mat = np.ones((size, size))
    else:
        i = np.arange(size).reshape(-1, 1)
        j = np.arange(size).reshape(1, -1)
        mat = 1.0 + (i + j) / (2.0 * (size - 1) if size > 1 else 1.0)
    mat.setflags(write=False)
    return mat


def quantize(
    coeffs: np.ndarray,
    qp: int,
    flat: bool = False,
    deadzone: float = _DEADZONE,
) -> np.ndarray:
    """Quantize ``(n, S, S)`` coefficient blocks to integer levels.

    ``level = sign(c) * floor(|c| / (qstep * W) + deadzone)`` -- dead-zone
    quantization biases small coefficients to zero, which is where most of
    the compression comes from.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim != 3:
        raise ValueError(f"expected (n, S, S) coefficients, got shape {coeffs.shape}")
    if not 0.0 <= deadzone < 1.0:
        raise ValueError(f"deadzone must be in [0, 1), got {deadzone}")
    divisor = qp_to_qstep(qp) * quant_matrix(coeffs.shape[1], flat=flat)
    magnitude = np.floor(np.abs(coeffs) / divisor + deadzone)
    return (np.sign(coeffs) * magnitude).astype(np.int32)


def dequantize(levels: np.ndarray, qp: int, flat: bool = False) -> np.ndarray:
    """Reconstruct coefficients from integer levels (the decoder's half)."""
    levels = np.asarray(levels)
    if levels.ndim != 3:
        raise ValueError(f"expected (n, S, S) levels, got shape {levels.shape}")
    scale = qp_to_qstep(qp) * quant_matrix(levels.shape[1], flat=flat)
    return levels.astype(np.float64) * scale


def rdoq_threshold(
    levels: np.ndarray,
    coeffs: np.ndarray,
    qp: int,
    flat: bool = False,
    lambda_scale: float = 0.25,
) -> np.ndarray:
    """Rate-distortion-optimized quantization by level thresholding.

    A lightweight trellis: any level whose distortion cost of being zeroed
    is lower than the rate cost of coding it gets dropped.  The rate cost of
    a level is approximated from its Exp-Golomb length; distortion is the
    squared reconstruction error delta.  This genuinely trades a tiny PSNR
    loss for a solid bitrate cut, and is one of the "more tools" knobs that
    separate the slow presets and the newer-codec encoder models.
    """
    levels = np.asarray(levels)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if levels.shape != coeffs.shape:
        raise ValueError(
            f"levels/coeffs shape mismatch: {levels.shape} vs {coeffs.shape}"
        )
    scale = qp_to_qstep(qp) * quant_matrix(levels.shape[1], flat=flat)
    recon = levels * scale
    # Distortion delta of zeroing: c^2 - (c - recon)^2
    d_zero = coeffs**2 - (coeffs - recon) ** 2
    # Rate of a level ~ Exp-Golomb length of its signed value, in bits.
    mags = np.abs(levels)
    rate = np.where(mags > 0, 2 * np.floor(np.log2(2 * mags + 1)) + 1, 0.0)
    lam = lambda_scale * qp_to_qstep(qp) ** 2
    keep = d_zero > lam * rate
    out = np.where(keep, levels, 0)
    # Never drop the DC coefficient; it is cheap and perceptually critical.
    out[:, 0, 0] = levels[:, 0, 0]
    return out.astype(np.int32)
