"""In-loop deblocking filter.

Coarse quantization makes block boundaries visible; the deblocking filter
smooths across boundaries whose discontinuity is small enough to be a
coding artifact (large true edges are left alone).  Because it runs inside
the coding loop -- the filtered frame is the reference for the next frame --
the encoder and decoder must apply it identically (Section 2.1 mentions the
H.264 deblocking filter as the canonical new-codec tool).

The filter is a simplified H.264 design: at every transform-block edge the
sample on each side is low-passed when the edge step is below a
QP-dependent threshold.  Like H.264's boundary-strength rules, edges
between two *uncoded* blocks (skip blocks with no residual) are never
filtered: their pixels are bit-exact copies of an already-filtered
reference, and re-filtering them would make static content drift frame
over frame -- costing bits to correct instead of saving them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.codec.instrumentation import Counters
from repro.codec.quant import qp_to_qstep

__all__ = ["deblock_plane", "edge_threshold"]


def edge_threshold(qp: int) -> float:
    """Maximum edge discontinuity treated as a coding artifact.

    Grows with the quantizer step: coarser quantization produces bigger
    legitimate blocking steps that still need smoothing.
    """
    return 1.5 * qp_to_qstep(qp) + 2.0


def _min_step() -> float:
    """Smallest edge step worth filtering (H.264's beta floor).

    Steps at or below this are already smooth; filtering them would only
    make reconstructed content drift from frame to frame.
    """
    return 1.5


def _tc(qp: int) -> float:
    """Maximum per-sample change the filter may apply (H.264's tc clip)."""
    return 1.0 + qp_to_qstep(qp) / 6.0


def _expand_activity(
    active_blocks: Optional[np.ndarray],
    height: int,
    width: int,
    block_size: int,
) -> Optional[np.ndarray]:
    """Validate the per-block activity grid for this plane geometry."""
    if active_blocks is None:
        return None
    grid = np.asarray(active_blocks, dtype=bool)
    expected = (height // block_size, width // block_size)
    if grid.shape != expected:
        raise ValueError(
            f"activity grid must be {expected} for a {width}x{height} plane "
            f"with {block_size}px blocks, got {grid.shape}"
        )
    return grid


def deblock_plane(
    plane: np.ndarray,
    block_size: int,
    qp: int,
    active_blocks: Optional[np.ndarray] = None,
    counters: Optional[Counters] = None,
) -> np.ndarray:
    """Filter internal block edges of ``plane``; returns a new array.

    Args:
        plane: The reconstructed plane.
        block_size: Transform block size (the edge grid pitch).
        qp: Frame quantizer (sets the artifact threshold).
        active_blocks: Optional ``(rows, cols)`` bool grid of *coded*
            blocks; an edge is filtered only where at least one adjacent
            block is active (boundary strength > 0).  ``None`` filters
            everything (I frames).
        counters: Work counters (filtered edge pixels).

    Vertical edges are filtered first, then horizontal, matching the
    encoder/decoder shared order (the result depends on it).

    Raises:
        ValueError: On a block size below 4 or a plane or activity grid
            that does not fit it.
    """
    if block_size < 4:
        raise ValueError(f"block size must be at least 4, got {block_size}")
    out = np.asarray(plane, dtype=np.float64).copy()
    height, width = out.shape
    if height % block_size or width % block_size:
        raise ValueError(
            f"plane {width}x{height} not a multiple of block size {block_size}"
        )
    activity = _expand_activity(active_blocks, height, width, block_size)
    edges = _filter_vertical_edges(out, block_size, qp, activity)
    edges += _filter_vertical_edges(
        out.T, block_size, qp, None if activity is None else activity.T
    )
    if counters is not None:
        counters.add("deblock_edge", edges)
    return out


def _filter_vertical_edges(
    out: np.ndarray, block_size: int, qp: int, activity: Optional[np.ndarray]
) -> int:
    """Filter every vertical block edge of ``out`` in place, all at once.

    An edge at column ``x`` reads columns ``x - 2 .. x + 1`` and writes
    ``x - 1`` and ``x``.  Edges are ``block_size >= 4`` apart, so no edge
    reads a column another one writes, and filtering them together gives
    the bits of filtering them one at a time.  Called on ``out.T`` it
    filters the horizontal edges.  Returns the number of filtered edge
    samples.
    """
    width = out.shape[1]
    p1, p0, q0, q1 = (
        out[:, block_size + d : width + d : block_size] for d in (-2, -1, 0, 1)
    )
    step = np.abs(p0 - q0)
    mask = (step < edge_threshold(qp)) & (step > _min_step())
    if activity is not None:
        strength = activity[:, :-1] | activity[:, 1:]
        mask &= np.repeat(strength, block_size, axis=0)
    tc = _tc(qp)
    dp = np.clip((p1 + 2.0 * p0 + q0) / 4.0 - p0, -tc, tc)
    dq = np.clip((p0 + 2.0 * q0 + q1) / 4.0 - q0, -tc, tc)
    p0[...] = np.where(mask, p0 + dp, p0)
    q0[...] = np.where(mask, q0 + dq, q0)
    return int(mask.sum())
