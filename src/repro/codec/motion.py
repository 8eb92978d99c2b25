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
windows are gathered with advanced indexing (log search, sub-pel) or read
as sliding-window views of the reference (full search) and SAD is reduced
per block, so the inner loops run in numpy, not Python.

Motion vectors are stored in **quarter-pel units** ``(dy, dx)``; sub-pixel
refinement (when enabled by the preset) evaluates the 8 half-pel positions
around the integer optimum, and optionally the 8 quarter-pel positions
around that (``subpel_depth`` 1 and 2), using bilinear interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
            reconstructed reference plane, padded by ``pad``: shape
            ``(H + 2 * pad, W + 2 * pad)``.
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
    if np.shape(reference_padded) != (height + 2 * pad, width + 2 * pad):
        raise ValueError(
            f"reference_padded is {np.shape(reference_padded)}, expected "
            f"{(height + 2 * pad, width + 2 * pad)} for a {(height, width)} "
            f"plane padded by {pad}"
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
                current, reference_padded, pad, block_size, search_range,
                active, a_mvs, a_sads, counters,
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


def _on_8bit_grid(plane: np.ndarray) -> bool:
    """Whether the pixel snap of ``filter_and_snap`` would leave ``plane`` as it is."""
    return np.array_equal(plane, np.clip(np.rint(plane), 0, 255))


def _full_search(current, padded, pad, bs, srange, active, best_mvs, best_sads, counters):
    """Exhaustive integer search over the full +/- srange window.

    Builds every block's SAD surface one row of displacements at a time:
    the ``2*srange + 1`` horizontal shifts of the reference rows at one
    ``dy`` are a sliding-window view against the current plane, reduced
    over the rows, then the columns, of each macroblock -- ``2*srange + 1``
    numpy passes per frame, not one per ``(dy, dx)``.  The first minimum of
    the raster-ordered surface, under one strict ``<`` against the incoming
    best, is the vector a sequential raster scan keeps.

    Codec planes are on the 8-bit grid (``uint8`` sources, references
    snapped by ``filter_and_snap``), so the sums run in integers that hold
    them exactly -- ``|a - b| <= 255``, 16 rows ``<= 4080`` (``int16``), a
    block ``<= 65280`` (``int32``) -- and equal the float64 SADs bit for
    bit in any accumulation order.  Other inputs run the same code in
    float64.
    """
    height, width = current.shape
    rows, cols = height // bs, width // bs
    k = 2 * srange + 1
    exact = 255 * bs <= np.iinfo(np.int16).max  # what a 16-bit row sum can hold
    if exact and _on_8bit_grid(current) and _on_8bit_grid(padded):
        current, padded = current.astype(np.int16), padded.astype(np.int16)
        row_t, sad_t = np.int16, np.int32
    else:
        row_t = sad_t = np.float64
    surface = np.empty((rows, cols, k, k), dtype=sad_t)  # [mb row, mb col, dy, dx]
    x0 = pad - srange
    for i in range(k):
        band = padded[x0 + i : x0 + i + height, x0 : x0 + width + 2 * srange]
        diff = sliding_window_view(band, width, axis=1) - current[:, None, :]  # [y, dx, x]
        np.abs(diff, out=diff)
        row_sums = diff.reshape(rows, bs, k, width).sum(axis=1, dtype=row_t)
        block_sads = row_sums.reshape(rows, k, cols, bs).sum(axis=3, dtype=sad_t)
        surface[:, :, i] = block_sads.swapaxes(1, 2)
    sads = surface.reshape(rows * cols, k * k)[active].astype(np.float64)
    sads[:, k * k // 2] = best_sads  # the zero vector is the incumbent's, never a candidate
    counters.add("sad", active.size * (k * k - 1))
    lowest = sads.min(axis=1)
    better = lowest < best_sads
    best_sads[better] = lowest[better]
    first = sads[better].argmin(axis=1)
    best_mvs[better] = np.stack(np.divmod(first, k), axis=1) - srange
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
