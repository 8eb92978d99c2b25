"""The two image filters the package needs, in numpy.

``gaussian_blur`` is the SSIM window and the denoiser's spatial stage;
``zoom_linear`` upsamples the coarse grids of the synthetic textures.  Both
reproduce ``scipy.ndimage`` (``gaussian_filter(mode="reflect")`` and
``zoom(order=1)``) bit for bit -- same kernel, same padding, same order of
floating-point operations -- so every clip, SSIM value and bitstream is
what the scipy calls they replaced produced.  ``tests/test_filters.py``
pins that against scipy itself.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

__all__ = ["gaussian_blur", "zoom_linear"]


@functools.lru_cache(maxsize=None)
def _half_kernel(sigma: float) -> np.ndarray:
    """Taps ``w[0..r]`` of scipy's normalised Gaussian (it is symmetric),
    built once per sigma and read-only: every caller shares them."""
    radius = int(4.0 * float(sigma) + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    taps = (phi / phi.sum())[radius:]
    taps.flags.writeable = False
    return taps


def _correlate(
    src: np.ndarray, start: int, stride: int, weights: np.ndarray, out: np.ndarray
) -> None:
    """One 1-D pass over flat memory, in scipy's order of operations.

    ``out[i]`` is ``src[start + i] * w[0]``, then for ``j = r .. 1`` plus
    ``(src[start + i - j*stride] + src[start + i + j*stride]) * w[j]``: the
    symmetric-kernel loop of scipy's ``correlate1d``.  Every operand is a
    contiguous slice, so each step is one vectorised pass over the plane.
    """
    n = len(out)
    np.multiply(src[start : start + n], weights[0], out=out)
    pair = np.empty(n)
    for j in range(len(weights) - 1, 0, -1):
        lo, hi = start - j * stride, start + j * stride
        np.add(src[lo : lo + n], src[hi : hi + n], out=pair)
        pair *= weights[j]
        out += pair


def gaussian_blur(plane: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-blur a 2-D plane.

    Equal to ``scipy.ndimage.gaussian_filter(plane, sigma, mode="reflect")``:
    truncation at 4 sigma, axis 0 filtered before axis 1.  The plane is
    padded on both axes up front, with ``np.pad``'s ``symmetric`` (which is
    scipy's ``reflect``: ``c b a | a b c | c b a``) -- padding the columns
    commutes with filtering along axis 0 -- so both passes run over one
    flat buffer, the axis-0 pass at a stride of one padded row.
    """
    plane = np.asarray(plane, dtype=np.float64)
    if not sigma > 1e-15:  # scipy leaves such an axis unfiltered
        return plane.copy()
    weights = _half_kernel(sigma)
    r = len(weights) - 1
    h, w = plane.shape
    padded = np.pad(plane, r, mode="symmetric").ravel()
    row = w + 2 * r
    columns = np.empty(h * row)
    _correlate(padded, r * row, row, weights, columns)
    out = np.empty(h * row)
    _correlate(columns, r, 1, weights, out[: h * row - 2 * r])
    return np.ascontiguousarray(out.reshape(h, row)[:, :w])


def _linear_taps(n_in: int, n_out: int):
    """Per output sample: both source indices, both weights, and whether
    the coordinate lies inside the input (scipy's ``mode="constant"``
    zeroes a coordinate that rounding pushed past the last sample)."""
    step = (n_in - 1) / (n_out - 1) if n_out > 1 else 1.0
    coord = np.arange(n_out) * step
    low = np.floor(coord)
    w0 = 1.0 - (coord - low)
    i0 = low.astype(np.intp)
    i1 = np.minimum(i0 + 1, n_in - 1)  # weight 0 wherever this clamps
    return i0, i1, w0, 1.0 - w0, coord <= n_in - 1


def zoom_linear(coarse: np.ndarray, shape: Tuple[int, int]) -> np.ndarray:
    """Bilinearly resample a 2-D array to ``shape`` (rows, columns).

    Equal to ``scipy.ndimage.zoom(coarse, factors, order=1)`` with the
    factors that give ``shape``: the corner samples map onto the input's
    corners.
    """
    a = np.asarray(coarse, dtype=np.float64)
    n_rows, n_cols = shape
    r0, r1, wr0, wr1, rows_in = _linear_taps(a.shape[0], n_rows)
    c0, c1, wc0, wc1, cols_in = _linear_taps(a.shape[1], n_cols)
    wr0, wr1 = wr0[:, None], wr1[:, None]
    top, bottom = a[r0], a[r1]
    # The four neighbours in C order, each (value * row weight) * col weight.
    out = (top[:, c0] * wr0) * wc0
    out += (top[:, c1] * wr0) * wc1
    out += (bottom[:, c0] * wr1) * wc0
    out += (bottom[:, c1] * wr1) * wc1
    out[~rows_in, :] = 0.0
    out[:, ~cols_in] = 0.0
    return out
