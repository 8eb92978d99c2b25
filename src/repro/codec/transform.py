"""2-D discrete cosine transform over batches of square blocks.

The DCT converts residual pixel blocks into the 2-D spatial-frequency
domain, concentrating energy into a few low-frequency coefficients so that
quantization can discard the high-frequency detail viewers notice least
(Section 2.1 of the paper).

We use the orthonormal DCT-II, applied separably as ``C @ X @ C.T``; because
``C`` is orthogonal the inverse is ``C.T @ Y @ C`` and the transform is
perfectly invertible up to float rounding.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["dct_matrix", "forward_dct", "inverse_dct", "zigzag_order"]


@lru_cache(maxsize=None)
def dct_matrix(size: int) -> np.ndarray:
    """The ``size x size`` orthonormal DCT-II matrix (read-only)."""
    if size <= 0:
        raise ValueError(f"transform size must be positive, got {size}")
    k = np.arange(size).reshape(-1, 1)
    n = np.arange(size).reshape(1, -1)
    mat = np.cos(np.pi * (2 * n + 1) * k / (2 * size)) * np.sqrt(2.0 / size)
    mat[0, :] = np.sqrt(1.0 / size)
    mat.setflags(write=False)
    return mat


def forward_dct(blocks: np.ndarray) -> np.ndarray:
    """Transform ``(n, S, S)`` residual blocks to coefficient blocks."""
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise ValueError(f"expected (n, S, S) blocks, got shape {blocks.shape}")
    c = dct_matrix(blocks.shape[1])
    return np.matmul(np.matmul(c, blocks), c.T)


def inverse_dct(coeffs: np.ndarray) -> np.ndarray:
    """Invert :func:`forward_dct`."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim != 3 or coeffs.shape[1] != coeffs.shape[2]:
        raise ValueError(f"expected (n, S, S) coefficients, got shape {coeffs.shape}")
    c = dct_matrix(coeffs.shape[1])
    return np.matmul(np.matmul(c.T, coeffs), c)


@lru_cache(maxsize=None)
def zigzag_order(size: int) -> np.ndarray:
    """Indices that scan an ``S x S`` block in zig-zag (low to high frequency).

    Returned as a flat int array of length ``S * S`` into the row-major
    block, ordered by anti-diagonal with alternating direction -- the scan
    order every DCT codec uses so that quantized blocks end in long runs of
    zeros.
    """
    if size <= 0:
        raise ValueError(f"transform size must be positive, got {size}")
    order = []
    for s in range(2 * size - 1):
        coords = [
            (i, s - i)
            for i in range(max(0, s - size + 1), min(size, s + 1))
        ]
        if s % 2 == 0:
            coords.reverse()  # even anti-diagonals walk up-right
        order.extend(i * size + j for i, j in coords)
    arr = np.array(order, dtype=np.int64)
    arr.setflags(write=False)
    return arr
