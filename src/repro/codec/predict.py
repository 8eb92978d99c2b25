"""Intra prediction: spatial prediction from already-decoded neighbours.

I-frame macroblocks are predicted from the reconstructed pixels above and
to the left (DC mode: the mean of the neighbouring border samples), which
exploits spatial redundancy the same way motion compensation exploits
temporal redundancy.  :func:`dc_predict` is the per-block definition;
:func:`edge_dc` is the batched form the intra walk
(:meth:`repro.codec.reconstruct.FrameReconstructor.reconstruct_intra`)
takes over the kept edges of finished neighbours.  P-frame blocks that fall
back to intra (occlusions, scene content with no temporal match) use a flat
mid-grey predictor so the P-frame pipeline stays free of raster-order data
dependences.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.codec.instrumentation import Counters

__all__ = [
    "dc_predict",
    "edge_dc",
    "FLAT_PREDICTOR",
    "intra_cost",
]

#: The flat predictor value for P-frame intra fallback blocks (mid grey).
FLAT_PREDICTOR = 128.0


def dc_predict(
    recon: np.ndarray,
    y0: int,
    x0: int,
    size: int,
    counters: Optional[Counters] = None,
) -> float:
    """DC prediction value for the block at ``(y0, x0)``.

    The mean of the reconstructed row directly above and column directly to
    the left of the block; blocks on the top/left frame border fall back to
    whatever neighbours exist, or mid grey for the very first block --
    exactly the H.264 DC mode's availability rules.
    """
    samples = []
    if y0 > 0:
        samples.append(recon[y0 - 1, x0 : x0 + size])
    if x0 > 0:
        samples.append(recon[y0 : y0 + size, x0 - 1])
    if counters is not None:
        counters.add("intra_pred", 1)
    if not samples:
        return FLAT_PREDICTOR
    return float(np.mean(np.concatenate(samples)))


def edge_dc(above: Optional[np.ndarray], left: Optional[np.ndarray]) -> np.ndarray:
    """DC predictors of blocks from the ``(..., size)`` samples above and to
    the left of each (``None``: no block has that neighbour).

    Each mean is ``np.mean``'s own sum-then-divide over one contiguous
    ``[above | left]`` row, the order :func:`dc_predict` concatenates, so
    the predictor -- and therefore the bitstream -- is bit-identical to it.
    """
    if above is None or left is None:
        samples = left if above is None else above
    else:
        samples = np.concatenate((above, left), axis=-1)
    return np.add.reduce(samples, axis=-1) / samples.shape[-1]


def intra_cost(blocks: np.ndarray) -> np.ndarray:
    """Estimated intra coding cost of ``(n, s, s)`` blocks (vectorized).

    The SAD of each block against its own mean -- the residual energy DC
    prediction would leave behind in the best case.  Used by the P-frame
    mode decision to detect blocks where no temporal match exists.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 3:
        raise ValueError(f"expected (n, s, s) blocks, got shape {blocks.shape}")
    means = blocks.mean(axis=(1, 2), keepdims=True)
    return np.abs(blocks - means).sum(axis=(1, 2))
