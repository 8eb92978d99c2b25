"""Motion estimation and compensation, vectorized across all macroblocks.

Motion estimation is the costliest step of encoding (Section 2.1): for each
macroblock the encoder searches the reference frame for the best-matching
block under the sum-of-absolute-differences (SAD) criterion.  Three search
methods span the effort ladder:

* ``"none"``  -- zero-motion only (test/debug).
* ``"log"``   -- logarithmic (step-halving) search seeded by the temporal
  predictor; the workhorse of the software presets.
* ``"full"``  -- exhaustive search of the whole +/- range window; the
  highest effort level, computed exactly by successive elimination: an
  8x8 sub-block bound leaves a few percent of the SADs to compute.

Everything operates on all blocks of a frame simultaneously: candidate
windows are gathered per block from a sliding-window view of the reference
and SAD is reduced per block, so the inner loops run in numpy, not Python.

The search runs in exact integers.  Codec planes are on the 8-bit grid
(``uint8`` sources, references snapped by ``filter_and_snap``), which
:func:`estimate_motion` checks once per call; every SAD is then ``int16``
differences summed into ``int32``, the same numbers as float64 SADs of the
same planes, bit for bit (DESIGN.md, "Codec performance").

Motion vectors are stored in **quarter-pel units** ``(dy, dx)``; sub-pixel
refinement (when enabled by the preset) evaluates the 8 half-pel positions
around the integer optimum, and optionally the 8 quarter-pel positions
around that (``subpel_depth`` 1 and 2), using bilinear interpolation.
"""

from __future__ import annotations

import math
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

#: Largest block size :func:`estimate_motion` accepts.
_MAX_BLOCK = np.iinfo(np.int16).max // 255
#: Side of the sub-blocks whose sums bound a full-search SAD from below.
_SUB_BLOCK = 8
#: Most (block, vector) candidates one full-search batch computes exactly.
_SAD_BATCH = 1024


@dataclass
class MotionField:
    """Result of motion estimation for one frame.

    Attributes:
        mvs: ``(n, 2)`` motion vectors in quarter-pel units, ``(dy, dx)``.
        sads: ``(n,)`` best SAD per block (at the chosen vector), float64.
        zero_sads: ``(n,)`` SAD at the zero vector (skip-mode cost), float64.
    """

    mvs: np.ndarray
    sads: np.ndarray
    zero_sads: np.ndarray

    def __post_init__(self) -> None:
        # The search sums in integers; mode decision adds float costs to them.
        self.sads = np.asarray(self.sads, dtype=np.float64)
        self.zero_sads = np.asarray(self.zero_sads, dtype=np.float64)


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


def _sad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-block SAD over ``(n, s, s)`` integer arrays, summed in ``int32``."""
    diff = a - b
    return np.abs(diff, out=diff).sum(axis=(1, 2), dtype=np.int32)


def _bilinear(view: np.ndarray, ys, xs, mvs: np.ndarray, one: int) -> np.ndarray:
    """Bilinear prediction numerator at fractional vectors.

    ``mvs`` are in ``1/one`` pixel units; ``view`` is the sliding
    ``(bs + 1)``-pixel window view of a padded reference and ``(ys, xs)``
    the blocks' origins in it.  Returns the ``(n, bs, bs)`` predictions
    times ``one**2``, the sum of the weights: exact integers on an integer
    view (``16 * 255`` and ``64 * 255`` fit ``int16``), the same float
    expression otherwise.
    """
    int_y, frac_y = np.divmod(mvs[:, 0], one)
    int_x, frac_x = np.divmod(mvs[:, 1], one)
    window = view[ys + int_y, xs + int_x]
    fy = frac_y[:, None, None].astype(window.dtype)
    fx = frac_x[:, None, None].astype(window.dtype)
    bs = window.shape[1] - 1
    return (
        (one - fy) * (one - fx) * window[:, :bs, :bs]
        + (one - fy) * fx * window[:, :bs, 1:]
        + fy * (one - fx) * window[:, 1:, :bs]
        + fy * fx * window[:, 1:, 1:]
    )


def _on_8bit_grid(plane: np.ndarray) -> bool:
    """Whether the pixel snap of ``filter_and_snap`` would leave ``plane`` as it is."""
    return np.array_equal(plane, np.clip(np.rint(plane), 0, 255))


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
            multiple of ``block_size``, on the 8-bit grid.
        reference_padded: Output of :func:`pad_reference` on the
            reconstructed reference plane, padded by ``pad``: shape
            ``(H + 2 * pad, W + 2 * pad)``, on the 8-bit grid.
        pad: The padding used; must be at least ``search_range + 1``.
        block_size: Macroblock size (16 for luma), at most 128.
        search_method: ``"none"``, ``"log"`` or ``"full"``.
        search_range: Maximum displacement in integer pixels.
        subpel_depth: 0 = integer-pel only, 1 = refine to half-pel,
            2 = refine to quarter-pel.
        refine_iterations: Max moves per step size in the log search.
        init_mvs: Optional ``(n, 2)`` integer-pel seeds (e.g. the previous
            frame's field, the temporal predictor).
        skip_threshold: Early-skip gate: blocks whose zero-vector SAD is
            below this (finite) threshold are not searched at all (their
            vector stays zero).  This is where fast presets and hardware
            models save most of their motion-search work on static content.
        counters: Kernel-work counters to update.

    Returns:
        A :class:`MotionField` with vectors in quarter-pel units.

    Raises:
        ValueError: On inconsistent geometry or options, or a plane with a
            value that is not an integer in 0..255.
    """
    height, width = np.shape(current)
    if not 0 < block_size <= _MAX_BLOCK:
        raise ValueError(f"block size must be in 1..{_MAX_BLOCK}, got {block_size}")
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
    n = (height // block_size) * (width // block_size)
    if init_mvs is not None and np.shape(init_mvs) != (n, 2):
        raise ValueError(f"init_mvs must be ({n}, 2), got {np.shape(init_mvs)}")
    if skip_threshold is not None and not math.isfinite(skip_threshold):
        raise ValueError(f"skip_threshold must be finite, got {skip_threshold}")
    for name, plane in (("current", current), ("reference_padded", reference_padded)):
        if not _on_8bit_grid(plane):
            raise ValueError(f"{name} is not on the 8-bit grid (integers in 0..255)")
    cur = np.asarray(current).astype(np.int16)
    ref = np.asarray(reference_padded).astype(np.int16)
    counters = counters if counters is not None else Counters()

    cur_blocks = (
        cur.reshape(height // block_size, block_size, width // block_size, block_size)
        .swapaxes(1, 2)
        .reshape(-1, block_size, block_size)
    )
    ys, xs = (origin + pad for origin in block_positions(height, width, block_size))
    view = sliding_window_view(ref, (block_size, block_size))

    # Zero-motion SAD doubles as the skip-mode cost.
    zero_sads = _sad(cur_blocks, view[ys, xs])
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
            seeds = np.asarray(init_mvs, dtype=np.int64)[active]
            seeds = np.clip(seeds, -search_range, search_range)
            if np.any(seeds):
                seed_sads = _sad(a_blocks, view[a_ys + seeds[:, 0], a_xs + seeds[:, 1]])
                counters.add("sad", active.size)
                better = seed_sads < a_sads
                a_mvs[better] = seeds[better]
                a_sads[better] = seed_sads[better]

        if search_method == "full":
            a_mvs, a_sads = _full_search(
                cur, ref, pad, block_size, search_range,
                active, a_mvs, a_sads, counters,
            )
        else:
            a_mvs, a_sads = _log_search(
                a_blocks, view, a_ys, a_xs, search_range, refine_iterations,
                a_mvs, a_sads, counters,
            )
        best_mvs[active] = a_mvs
        best_sads[active] = a_sads

    mvs_qpel = best_mvs * 4
    sads16 = best_sads * 16  # sixteenths of a pixel: sub-pel SADs are exact in them
    if subpel_depth > 0 and search_method != "none" and active.size:
        mvs_qpel[active], sads16[active] = _subpel_refine(
            cur_blocks[active],
            sliding_window_view(ref, (block_size + 1, block_size + 1)),
            ys[active], xs[active], search_range,
            best_mvs[active], sads16[active], subpel_depth, counters,
        )

    counters.add("me_blocks", n)
    return MotionField(mvs=mvs_qpel, sads=sads16 / 16.0, zero_sads=zero_sads)


def _full_search(current, padded, pad, bs, srange, active, best_mvs, best_sads, counters):
    """Exhaustive integer search over the full +/- srange window, by
    successive elimination (Li & Salari, IEEE TIP 4(1), 1995).

    A block's SAD at a vector is at least ``LB``, the sum over its
    sub-blocks (``_SUB_BLOCK`` square, or the largest power of two dividing
    ``bs``) of ``|sum(cur) - sum(ref)|``; doubling adds give every window
    sum of the search area.  ``U``, the exact SAD at a block's lowest
    bound, caps its minimum, so exact SADs are computed only where
    ``LB <= U`` and ``LB`` is below the incoming best (a raster scan's
    strict ``<``), ``_SAD_BATCH`` at a time.  Every minimiser survives, so
    the first raster-order minimum over the survivors is the exhaustive
    scan's vector.  ``"sad"`` still counts that scan (see ``Counters``).

    ``current`` and ``padded`` are ``int16`` planes on the 8-bit grid, so
    a sub-block sums to ``<= 255 * 64`` (``int16``), ``|a - b| <= 255`` and
    a block sums to ``<= 255 * bs**2`` (``int32``).
    """
    height, width = current.shape
    rows, cols = height // bs, width // bs
    k = 2 * srange + 1
    sub = math.gcd(bs, _SUB_BLOCK)
    sums = padded[pad - srange : pad + srange + height, pad - srange : pad + srange + width]
    size = 1
    while size < sub:  # sums of every size x size window, doubling the size
        sums = sums[:-size] + sums[size:]
        sums = sums[:, :-size] + sums[:, size:]
        size *= 2
    windows = sliding_window_view(sums, (k, k))  # [y, x, dy, dx]
    cur_sums = current.reshape(height // sub, sub, width // sub, sub).sum(axis=(1, 3), dtype=np.int16)
    bound = np.zeros((rows, cols, k, k), dtype=np.int32)
    for i in range(0, bs, sub):
        for j in range(0, bs, sub):
            diff = cur_sums[i // sub :: bs // sub, j // sub :: bs // sub, None, None] - windows[i::bs, j::bs]
            bound += np.abs(diff, out=diff)
    bound = bound.reshape(rows * cols, k * k)[active]
    never = np.iinfo(np.int32).max
    bound[:, k * k // 2] = never  # the zero vector is the incumbent's, never a candidate

    cur_blocks = current.reshape(rows, bs, cols, bs).swapaxes(1, 2).reshape(-1, bs, bs)[active]
    ys, xs = (origin[active] for origin in block_positions(height, width, bs))
    view = sliding_window_view(padded[pad - srange :, pad - srange :], (bs, bs))

    def sads_at(blocks, cands):
        dy, dx = np.divmod(cands, k)
        return _sad(cur_blocks[blocks], view[ys[blocks] + dy, xs[blocks] + dx])

    upper = sads_at(np.arange(active.size), bound.argmin(axis=1))
    cutoff = np.minimum(upper, best_sads - 1)
    blocks, cands = np.nonzero(bound <= cutoff[:, None])  # raster order per block
    sads = np.full((active.size, k * k), never, dtype=np.int32)
    for at in range(0, blocks.size, _SAD_BATCH):
        b, c = blocks[at : at + _SAD_BATCH], cands[at : at + _SAD_BATCH]
        sads[b, c] = sads_at(b, c)
    counters.add("sad", active.size * (k * k - 1))
    lowest = sads.min(axis=1)
    better = lowest < best_sads
    best_sads[better] = lowest[better]
    first = sads[better].argmin(axis=1)
    best_mvs[better] = np.stack(np.divmod(first, k), axis=1) - srange
    return best_mvs, best_sads


def _log_search(cur_blocks, view, ys, xs, srange, max_iters, best_mvs, best_sads, counters):
    """Step-halving neighbourhood search, all blocks in lockstep.

    At each step size the eight neighbours of every block's current best
    vector are evaluated; blocks keep moving while they improve.  The step
    then halves.  Classic logarithmic search: ~8 * iters * log2(range) SADs
    per block instead of ``(2 * range + 1)**2``.

    Only blocks whose clamped candidate actually differs from their current
    best vector are gathered and reduced -- a candidate clamped back onto
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
                # Two in-place clamps: np.clip's Python wrapper cost more
                # than the clamp itself at this call count.
                cand = best_mvs + off
                np.maximum(cand, -srange, out=cand)
                np.minimum(cand, srange, out=cand)
                idx = np.nonzero(np.any(cand != best_mvs, axis=1))[0]
                if not idx.size:
                    continue
                sads = _sad(cur_blocks[idx], view[ys[idx] + cand[idx, 0], xs[idx] + cand[idx, 1]])
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


def _subpel_refine(cur_blocks, view, ys, xs, srange, int_mvs, best_sads16, depth, counters):
    """Refine to half-pel (depth 1) then quarter-pel (depth 2) precision.

    Each stage evaluates the 8 fractional neighbours of the current best
    vector, with candidate predictions built by bilinear interpolation --
    the same interpolator motion compensation uses, so refinement SADs
    match the residuals the encoder will actually code.  SADs are in
    sixteenths of a pixel: the luma weights sum to 16, so a prediction is
    ``N / 16`` for an integer numerator ``N`` and ``sum |16 * cur - N|`` is
    16 times its float SAD, exactly.
    """
    n = cur_blocks.shape[0]
    cur16 = cur_blocks * 16
    best_q = np.clip(int_mvs, -srange, srange) * 4
    limit = 4 * srange + 3
    steps = [2] if depth == 1 else [2, 1]
    for step in steps:
        improved_mvs = best_q.copy()
        improved_sads = best_sads16.copy()
        for hy in (-step, 0, step):
            for hx in (-step, 0, step):
                if hy == 0 and hx == 0:
                    continue
                cand = np.clip(best_q + (hy, hx), -limit, limit)
                sads = _sad(cur16, _bilinear(view, ys, xs, cand, 4))
                counters.add("sad", n)
                counters.add("interp_halfpel", n)
                better = sads < improved_sads
                improved_sads[better] = sads[better]
                improved_mvs[better] = cand[better]
        best_q = improved_mvs
        best_sads16 = improved_sads
    return best_q, best_sads16


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
    mvs = np.asarray(mvs_qpel, dtype=np.int64)
    view = sliding_window_view(reference_padded, (block_size + 1, block_size + 1))
    pred = _bilinear(view, ys + pad, xs + pad, mvs, 4) / 16.0
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
        view = sliding_window_view(reference_padded, (block_size, block_size))
        pred = view[ys + pad + chroma_mv[:, 0], xs + pad + chroma_mv[:, 1]]
        if counters is not None:
            counters.add("mc_blocks", mvs.shape[0])
        return pred
    view = sliding_window_view(reference_padded, (block_size + 1, block_size + 1))
    pred = _bilinear(view, ys + pad, xs + pad, mvs, 8) / 64.0
    if counters is not None:
        counters.add("mc_blocks", mvs.shape[0])
        counters.add("interp_halfpel", mvs.shape[0])
    return pred
