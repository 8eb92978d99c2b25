"""Motion estimation and compensation, vectorized across all macroblocks.

Motion estimation is the costliest step of encoding (Section 2.1): for each
macroblock the encoder searches the reference frame for the best-matching
block under the sum-of-absolute-differences (SAD) criterion.  Three search
methods span the effort ladder:

* ``"none"``  -- zero-motion only (test/debug).
* ``"log"``   -- logarithmic (step-halving) search seeded by the temporal
  predictor; the workhorse of the software presets.
* ``"full"``  -- exhaustive search of the whole +/- range window; the
  highest effort level.

Everything operates on all blocks of a frame simultaneously: candidate
windows are gathered with advanced indexing and SAD is reduced per block,
so the inner loops run in numpy, not Python.

Motion vectors are stored in **quarter-pel units** ``(dy, dx)``; sub-pixel
refinement (when enabled by the preset) evaluates the 8 half-pel positions
around the integer optimum, and optionally the 8 quarter-pel positions
around that (``subpel_depth`` 1 and 2), using bilinear interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.codec.instrumentation import Counters

__all__ = [
    "MotionField",
    "pad_reference",
    "block_positions",
    "estimate_motion",
    "motion_compensate",
    "motion_compensate_chroma",
]


@dataclass
class MotionField:
    """Result of motion estimation for one frame.

    Attributes:
        mvs: ``(n, 2)`` motion vectors in quarter-pel units, ``(dy, dx)``.
        sads: ``(n,)`` best SAD per block (at the chosen vector).
        zero_sads: ``(n,)`` SAD at the zero vector (skip-mode cost).
    """

    mvs: np.ndarray
    sads: np.ndarray
    zero_sads: np.ndarray


def pad_reference(plane: np.ndarray, pad: int) -> np.ndarray:
    """Edge-pad a reference plane by ``pad`` pixels on every side.

    Padding turns out-of-frame motion vectors into clamped reads, the same
    unrestricted-motion-vector trick real codecs use.
    """
    if pad < 0:
        raise ValueError(f"pad must be non-negative, got {pad}")
    return np.pad(np.asarray(plane, dtype=np.float64), pad, mode="edge")


def block_positions(height: int, width: int, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Top-left pixel coordinates ``(ys, xs)`` of each block, raster order."""
    rows = height // size
    cols = width // size
    by, bx = np.divmod(np.arange(rows * cols), cols)
    return by * size, bx * size


def _gather_windows(
    padded: np.ndarray, ys: np.ndarray, xs: np.ndarray, h: int, w: int
) -> np.ndarray:
    """Gather ``(n, h, w)`` windows at per-block offsets into a padded plane."""
    rows = ys[:, None, None] + np.arange(h)[None, :, None]
    cols = xs[:, None, None] + np.arange(w)[None, None, :]
    return padded[rows, cols]


def _sad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-block SAD over ``(n, s, s)`` arrays."""
    return np.abs(a - b).sum(axis=(1, 2))


def estimate_motion(
    current: np.ndarray,
    reference_padded: np.ndarray,
    pad: int,
    block_size: int,
    search_method: str = "log",
    search_range: int = 8,
    subpel_depth: int = 1,
    refine_iterations: int = 8,
    init_mvs: Optional[np.ndarray] = None,
    skip_threshold: Optional[float] = None,
    counters: Optional[Counters] = None,
) -> MotionField:
    """Estimate one motion vector per ``block_size`` block of ``current``.

    Args:
        current: The luma plane being encoded, shape ``(H, W)``, padded to a
            multiple of ``block_size``.
        reference_padded: Output of :func:`pad_reference` on the
            reconstructed reference plane, padded by ``pad``.
        pad: The padding used; must be at least ``search_range + 1``.
        block_size: Macroblock size (16 for luma).
        search_method: ``"none"``, ``"log"`` or ``"full"``.
        search_range: Maximum displacement in integer pixels.
        subpel_depth: 0 = integer-pel only, 1 = refine to half-pel,
            2 = refine to quarter-pel.
        refine_iterations: Max moves per step size in the log search.
        init_mvs: Optional ``(n, 2)`` integer-pel seeds (e.g. the previous
            frame's field, the temporal predictor).
        skip_threshold: Early-skip gate: blocks whose zero-vector SAD is
            below this threshold are not searched at all (their vector
            stays zero).  This is where fast presets and hardware models
            save most of their motion-search work on static content.
        counters: Kernel-work counters to update.

    Returns:
        A :class:`MotionField` with vectors in quarter-pel units.
    """
    current = np.asarray(current, dtype=np.float64)
    height, width = current.shape
    if height % block_size or width % block_size:
        raise ValueError(
            f"plane {width}x{height} not a multiple of block size {block_size}"
        )
    if search_method not in ("none", "log", "full"):
        raise ValueError(f"unknown search method {search_method!r}")
    if subpel_depth not in (0, 1, 2):
        raise ValueError(f"subpel_depth must be 0, 1 or 2, got {subpel_depth}")
    if pad < search_range + 1:
        raise ValueError(
            f"reference pad {pad} too small for search range {search_range}"
        )
    counters = counters if counters is not None else Counters()

    cur_blocks = (
        current.reshape(height // block_size, block_size, width // block_size, block_size)
        .swapaxes(1, 2)
        .reshape(-1, block_size, block_size)
    )
    n = cur_blocks.shape[0]
    ys, xs = block_positions(height, width, block_size)

    # Zero-motion SAD doubles as the skip-mode cost.
    zero_blocks = _gather_windows(
        reference_padded, ys + pad, xs + pad, block_size, block_size
    )
    zero_sads = _sad(cur_blocks, zero_blocks)
    counters.add("sad", n)

    best_mvs = np.zeros((n, 2), dtype=np.int64)
    best_sads = zero_sads.copy()

    # Early skip: static blocks (zero-MV already matches well) bypass the
    # search entirely.
    if skip_threshold is not None:
        active = np.nonzero(zero_sads >= skip_threshold)[0]
    else:
        active = np.arange(n)

    if search_method != "none" and search_range > 0 and active.size:
        a_blocks = cur_blocks[active]
        a_ys, a_xs = ys[active], xs[active]
        a_mvs = best_mvs[active]
        a_sads = best_sads[active]

        if init_mvs is not None:
            seeds = np.asarray(init_mvs, dtype=np.int64)
            if seeds.shape != (n, 2):
                raise ValueError(f"init_mvs must be ({n}, 2), got {seeds.shape}")
            seeds = np.clip(seeds[active], -search_range, search_range)
            if np.any(seeds):
                seed_blocks = _gather_windows(
                    reference_padded,
                    a_ys + pad + seeds[:, 0],
                    a_xs + pad + seeds[:, 1],
                    block_size,
                    block_size,
                )
                seed_sads = _sad(a_blocks, seed_blocks)
                counters.add("sad", active.size)
                better = seed_sads < a_sads
                a_mvs[better] = seeds[better]
                a_sads[better] = seed_sads[better]

        if search_method == "full":
            a_mvs, a_sads = _full_search(
                a_blocks, reference_padded, a_ys, a_xs, pad,
                block_size, search_range, a_mvs, a_sads, counters,
            )
        else:
            a_mvs, a_sads = _log_search(
                a_blocks, reference_padded, a_ys, a_xs, pad,
                block_size, search_range, refine_iterations,
                a_mvs, a_sads, counters,
            )
        best_mvs[active] = a_mvs
        best_sads[active] = a_sads

    mvs_qpel = best_mvs * 4
    if subpel_depth > 0 and search_method != "none" and active.size:
        a_qpel, a_sads = _subpel_refine(
            cur_blocks[active], reference_padded, ys[active], xs[active], pad,
            block_size, search_range, best_mvs[active], best_sads[active],
            subpel_depth, counters,
        )
        mvs_qpel[active] = a_qpel
        best_sads[active] = a_sads

    counters.add("me_blocks", n)
    return MotionField(mvs=mvs_qpel, sads=best_sads, zero_sads=zero_sads)


def _full_search(cur_blocks, padded, ys, xs, pad, bs, srange, best_mvs, best_sads, counters):
    """Exhaustive integer search over the full +/- srange window.

    Each block's whole search window (``2*srange + bs`` square) is gathered
    from the padded reference once up front; the candidate block at every
    displacement is then a constant-stride slice view into that window.
    This replaces ``(2*srange + 1)**2 - 1`` fancy-indexed gathers with one,
    leaving only the SAD reductions per offset.  Candidate pixel values are
    the same either way, so SADs -- and the bitstream -- are bit-identical.
    """
    n = cur_blocks.shape[0]
    span = 2 * srange + bs
    windows = _gather_windows(padded, ys + pad - srange, xs + pad - srange, span, span)
    for dy in range(-srange, srange + 1):
        for dx in range(-srange, srange + 1):
            if dy == 0 and dx == 0:
                continue
            r0, c0 = dy + srange, dx + srange
            cand = windows[:, r0 : r0 + bs, c0 : c0 + bs]
            sads = _sad(cur_blocks, cand)
            counters.add("sad", n)
            better = sads < best_sads
            best_sads[better] = sads[better]
            best_mvs[better] = (dy, dx)
    return best_mvs, best_sads


def _log_search(cur_blocks, padded, ys, xs, pad, bs, srange, max_iters, best_mvs, best_sads, counters):
    """Step-halving neighbourhood search, all blocks in lockstep.

    At each step size the eight neighbours of every block's current best
    vector are evaluated; blocks keep moving while they improve.  The step
    then halves.  Classic logarithmic search: ~8 * iters * log2(range) SADs
    per block instead of ``(2 * range + 1)**2``.

    Only blocks whose clipped candidate actually differs from their current
    best vector are gathered and reduced -- a candidate clipped back onto
    the block's own position can never win (``sads < best_sads`` is strict),
    so evaluating it is pure waste.  As the field converges, the changed
    subset shrinks toward the few still-moving blocks.  The ``"sad"``
    counter records evaluations *performed*, so it shrinks with the subset;
    see the counter-semantics note in :mod:`repro.codec.instrumentation`.
    """
    offsets8 = np.array(
        [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)],
        dtype=np.int64,
    )
    step = max(1, srange // 2)
    while step >= 1:
        for _ in range(max_iters):
            moved = False
            for off in offsets8 * step:
                cand = np.clip(best_mvs + off, -srange, srange)
                idx = np.nonzero(np.any(cand != best_mvs, axis=1))[0]
                if not idx.size:
                    continue
                blocks_ref = _gather_windows(
                    padded, ys[idx] + pad + cand[idx, 0], xs[idx] + pad + cand[idx, 1], bs, bs
                )
                sads = _sad(cur_blocks[idx], blocks_ref)
                counters.add("sad", idx.size)
                better = sads < best_sads[idx]
                if better.any():
                    sel = idx[better]
                    best_sads[sel] = sads[better]
                    best_mvs[sel] = cand[sel]
                    moved = True
            if not moved:
                break
        if step == 1:
            break
        step //= 2
    return best_mvs, best_sads


def _subpel_refine(cur_blocks, padded, ys, xs, pad, bs, srange, int_mvs, best_sads, depth, counters):
    """Refine to half-pel (depth 1) then quarter-pel (depth 2) precision.

    Each stage evaluates the 8 fractional neighbours of the current best
    vector, with candidate predictions built by bilinear interpolation --
    the same interpolator motion compensation uses, so refinement SADs
    match the residuals the encoder will actually code.
    """
    n = cur_blocks.shape[0]
    best_q = np.clip(int_mvs, -srange, srange) * 4
    limit = 4 * srange + 3
    steps = [2] if depth == 1 else [2, 1]
    for step in steps:
        improved_mvs = best_q.copy()
        improved_sads = best_sads.copy()
        for hy in (-step, 0, step):
            for hx in (-step, 0, step):
                if hy == 0 and hx == 0:
                    continue
                cand = np.clip(best_q + (hy, hx), -limit, limit)
                pred = _interp_windows(padded, pad, cand, ys, xs, bs)
                sads = _sad(cur_blocks, pred)
                counters.add("sad", n)
                counters.add("interp_halfpel", n)
                better = sads < improved_sads
                improved_sads[better] = sads[better]
                improved_mvs[better] = cand[better]
        best_q = improved_mvs
        best_sads = improved_sads
    return best_q, best_sads


def _interp_windows(padded, pad, mvs_qpel, ys, xs, bs):
    """Quarter-pel bilinear prediction for per-block vectors."""
    mvs = np.asarray(mvs_qpel, dtype=np.int64)
    int_y, frac_y = np.divmod(mvs[:, 0], 4)
    int_x, frac_x = np.divmod(mvs[:, 1], 4)
    window = _gather_windows(
        padded, ys + pad + int_y, xs + pad + int_x, bs + 1, bs + 1
    )
    fy = frac_y[:, None, None].astype(np.float64)
    fx = frac_x[:, None, None].astype(np.float64)
    return (
        (4 - fy) * (4 - fx) * window[:, :bs, :bs]
        + (4 - fy) * fx * window[:, :bs, 1:]
        + fy * (4 - fx) * window[:, 1:, :bs]
        + fy * fx * window[:, 1:, 1:]
    ) / 16.0


def motion_compensate(
    reference_padded: np.ndarray,
    pad: int,
    mvs_qpel: np.ndarray,
    ys: np.ndarray,
    xs: np.ndarray,
    block_size: int,
    *,
    counters: Optional[Counters] = None,
) -> np.ndarray:
    """Build the ``(n, bs, bs)`` prediction for quarter-pel motion vectors.

    Uses bilinear interpolation for fractional positions; encoder and
    decoder both reach it through :mod:`repro.codec.reconstruct`, so it
    must be deterministic.
    """
    pred = _interp_windows(
        reference_padded, pad, mvs_qpel, ys, xs, block_size
    )
    if counters is not None:
        counters.add("mc_blocks", len(pred))
    return pred


def motion_compensate_chroma(
    reference_padded: np.ndarray,
    pad: int,
    mvs_qpel: np.ndarray,
    ys: np.ndarray,
    xs: np.ndarray,
    block_size: int,
    *,
    subpel: bool = False,
    counters: Optional[Counters] = None,
) -> np.ndarray:
    """Chroma prediction from luma vectors (quarter-pel luma units).

    Chroma planes are half resolution, so the chroma displacement is
    ``mv / 8``.  The H.264-class fast path (``subpel=False``) rounds to
    the nearest integer chroma pixel; the HEVC/VP9-class tool
    (``subpel=True``) interpolates bilinearly at eighth-pel precision,
    which measurably sharpens chroma on moving content.
    """
    mvs = np.asarray(mvs_qpel, dtype=np.int64)
    if not subpel:
        chroma_mv = np.rint(mvs / 8.0).astype(np.int64)
        pred = _gather_windows(
            reference_padded,
            ys + pad + chroma_mv[:, 0],
            xs + pad + chroma_mv[:, 1],
            block_size,
            block_size,
        )
        if counters is not None:
            counters.add("mc_blocks", mvs.shape[0])
        return pred
    int_y, frac_y = np.divmod(mvs[:, 0], 8)
    int_x, frac_x = np.divmod(mvs[:, 1], 8)
    window = _gather_windows(
        reference_padded, ys + pad + int_y, xs + pad + int_x,
        block_size + 1, block_size + 1,
    )
    fy = frac_y[:, None, None].astype(np.float64)
    fx = frac_x[:, None, None].astype(np.float64)
    bs = block_size
    pred = (
        (8 - fy) * (8 - fx) * window[:, :bs, :bs]
        + (8 - fy) * fx * window[:, :bs, 1:]
        + fy * (8 - fx) * window[:, 1:, :bs]
        + fy * fx * window[:, 1:, 1:]
    ) / 64.0
    if counters is not None:
        counters.add("mc_blocks", mvs.shape[0])
        counters.add("interp_halfpel", mvs.shape[0])
    return pred
