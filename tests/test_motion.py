"""Motion estimation/compensation: known displacements, sub-pel, skip gate."""

import functools

import numpy as np
import pytest

from repro.codec import motion
from repro.codec.instrumentation import Counters
from repro.codec.motion import (
    block_positions,
    estimate_motion,
    motion_compensate,
    motion_compensate_chroma,
    pad_reference,
)


def _textured(rng, h, w):
    """Smooth textured content on the 8-bit grid: real video has a smooth
    SAD landscape.

    (Gradient-descent searches like the log search cannot find a global
    optimum hidden in iid noise -- neither can x264's; smoothness is what
    makes hierarchical search work on natural content.)  The blur leaves
    a standard deviation near 10 around 127.5; stretching it by 4 keeps
    the contrast of real content."""
    from scipy import ndimage

    smooth = ndimage.gaussian_filter(
        rng.uniform(0, 255, size=(h, w)), sigma=2.0, mode="wrap"
    )
    return np.clip(np.rint((smooth - 127.5) * 4.0 + 127.5), 0, 255)


def _shift(plane, dy, dx):
    """Shift content by (dy, dx) with edge fill (new content enters)."""
    out = np.roll(np.roll(plane, dy, axis=0), dx, axis=1)
    return out


class TestHelpers:
    def test_block_positions(self):
        ys, xs = block_positions(32, 48, 16)
        assert ys.tolist() == [0, 0, 0, 16, 16, 16]
        assert xs.tolist() == [0, 16, 32, 0, 16, 32]

    def test_pad_reference_edges(self):
        plane = np.arange(4.0).reshape(2, 2)
        padded = pad_reference(plane, 2)
        assert padded.shape == (6, 6)
        assert padded[0, 0] == plane[0, 0]
        assert padded[-1, -1] == plane[-1, -1]

    def test_pad_rejects_negative(self):
        with pytest.raises(ValueError):
            pad_reference(np.zeros((4, 4)), -1)


class TestIntegerSearch:
    @pytest.mark.parametrize("method", ["log", "full"])
    @pytest.mark.parametrize("dy,dx", [(0, 0), (2, -3), (-4, 4), (5, 1)])
    def test_recovers_global_shift(self, rng, method, dy, dx):
        ref = _textured(rng, 48, 64)
        cur = _shift(ref, -dy, -dx)  # content moved by (dy, dx) from ref
        padded = pad_reference(ref, 8)
        mf = estimate_motion(
            cur, padded, pad=8, block_size=16,
            search_method=method, search_range=6, subpel_depth=0,
        )
        mvs_fullpel = mf.mvs // 4
        # Interior blocks (not contaminated by roll wraparound) must agree.
        interior = [5]  # block at (16, 16) in a 3x4 grid
        for b in interior:
            assert tuple(mvs_fullpel[b]) == (dy, dx)
            assert mf.sads[b] == pytest.approx(0.0)

    def test_none_method_keeps_zero(self, rng):
        ref = _textured(rng, 32, 32)
        cur = _shift(ref, 1, 1)
        mf = estimate_motion(
            cur, pad_reference(ref, 8), pad=8, block_size=16,
            search_method="none", search_range=6,
        )
        assert np.all(mf.mvs == 0)

    def test_seed_mv_used(self, rng):
        ref = _textured(rng, 48, 64)
        cur = _shift(ref, -5, 0)
        seeds = np.tile([5, 0], (12, 1))
        counters = Counters()
        mf = estimate_motion(
            cur, pad_reference(ref, 8), pad=8, block_size=16,
            search_method="log", search_range=6, subpel_depth=0,
            init_mvs=seeds, counters=counters,
        )
        assert tuple(mf.mvs[5] // 4) == (5, 0)

    def test_validation(self, rng):
        ref = pad_reference(_textured(rng, 32, 32), 4)
        with pytest.raises(ValueError, match="search method"):
            estimate_motion(np.zeros((32, 32)), ref, 4, 16, search_method="spiral")
        with pytest.raises(ValueError, match="pad"):
            estimate_motion(
                np.zeros((32, 32)), ref, 4, 16, search_range=8
            )
        with pytest.raises(ValueError, match="multiple"):
            estimate_motion(np.zeros((30, 32)), ref, 4, 16, search_range=2)
        with pytest.raises(ValueError, match="subpel_depth"):
            estimate_motion(
                np.zeros((32, 32)), ref, 4, 16, search_range=2, subpel_depth=3
            )
        # A reference padded for another plane: slices would truncate silently.
        with pytest.raises(ValueError, match=r"\(40, 40\).*\(40, 56\)"):
            estimate_motion(np.zeros((32, 48)), ref, 4, 16, search_range=2)
        # Full search sums block rows in int16: 255 * 128 is the most it holds.
        big = np.zeros((256, 256))
        with pytest.raises(ValueError, match="block size"):
            estimate_motion(big, pad_reference(big, 4), 4, 256, search_range=2)
        # A wrong-shaped seed field is rejected on every path, not only
        # where the search reads it: zero-motion only, and every block gated.
        bad_seeds = np.zeros((3, 2), dtype=np.int64)  # the plane has 4 blocks
        with pytest.raises(ValueError, match="init_mvs"):
            estimate_motion(
                np.zeros((32, 32)), ref, 4, 16, search_method="none",
                search_range=2, init_mvs=bad_seeds,
            )
        with pytest.raises(ValueError, match="init_mvs"):
            estimate_motion(
                np.zeros((32, 32)), ref, 4, 16, search_range=2,
                init_mvs=bad_seeds, skip_threshold=1e12,
            )
        # ``zero_sads >= nan`` is all False: the search and the gate both off.
        for threshold in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="skip_threshold"):
                estimate_motion(
                    np.zeros((32, 32)), ref, 4, 16, search_range=2,
                    skip_threshold=threshold,
                )

    @pytest.mark.parametrize("which", ["current", "reference_padded"])
    @pytest.mark.parametrize("bad", [100.5, -1.0, 256.0, float("nan")])
    def test_rejects_planes_off_the_8bit_grid(self, which, bad):
        planes = {"current": np.full((32, 32), 100.0)}
        planes["reference_padded"] = pad_reference(planes["current"], 4)
        planes[which][5, 7] = bad
        with pytest.raises(ValueError, match=f"^{which} is not on the 8-bit grid"):
            estimate_motion(
                planes["current"], planes["reference_padded"], 4, 16, search_range=2
            )


def _gather(plane, ys, xs, h, w):
    """``(n, h, w)`` windows at per-block offsets, by an index grid."""
    rows = ys[:, None, None] + np.arange(h)[None, :, None]
    cols = xs[:, None, None] + np.arange(w)[None, None, :]
    return plane[rows, cols]


def _scan_full_search(current, padded, pad, bs, srange, active, best_mvs, best_sads, counters):
    """The sequential per-offset scan ``_full_search`` replaced: its oracle
    for values, raster-order tie-breaking and the ``sad`` count."""
    current, padded = np.asarray(current, np.float64), np.asarray(padded, np.float64)
    ys, xs = (origin[active] for origin in block_positions(*current.shape, bs))
    cur_blocks = _gather(current, ys, xs, bs, bs)
    for dy in range(-srange, srange + 1):
        for dx in range(-srange, srange + 1):
            if dy == 0 and dx == 0:
                continue
            cand = _gather(padded, ys + pad + dy, xs + pad + dx, bs, bs)
            sads = np.abs(cur_blocks - cand).sum(axis=(1, 2))
            counters.add("sad", active.size)
            better = sads < best_sads
            best_sads[better] = sads[better]
            best_mvs[better] = (dy, dx)
    return best_mvs, best_sads


def _both_searches(monkeypatch, cur, ref, srange, **kwargs):
    """``estimate_motion(..., "full")`` with the surface and with the scan."""
    out = []
    for scan in (False, True):
        with monkeypatch.context() as patch:
            if scan:
                patch.setattr(motion, "_full_search", _scan_full_search)
            counters = Counters()
            mf = estimate_motion(
                cur, pad_reference(ref, srange + 2), srange + 2, 16,
                search_method="full", search_range=srange, counters=counters,
                **kwargs,
            )
        out.append((mf, counters.as_dict()))
    return out


@functools.lru_cache(maxsize=None)
def _placebo_p_frame_search(content):
    """``(args, kwargs)`` of the first ``estimate_motion`` call when
    ``placebo`` encodes two 192x128 frames of ``content`` at seed 7, the
    size and seed ``benchmarks/perf`` encodes (counters left out)."""
    from repro.codec import encoder
    from repro.codec.presets import preset
    from repro.video.synthesis import synthesize

    calls = []

    def record(*args, **kwargs):
        calls.append((args, {k: v for k, v in kwargs.items() if k != "counters"}))
        return estimate_motion(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoder, "estimate_motion", record)
        encoder.encode(synthesize(content, 192, 128, 2, 24.0, seed=7), preset("placebo"), crf=28)
    assert calls[0][1]["search_method"] == "full"
    return calls[0]


class TestFullSearchAgainstScan:
    """Successive elimination must reproduce the per-offset scan, not
    approximate it: the same vectors, SADs and ordered counters."""

    @staticmethod
    def _assert_equal(pair):
        (new, new_counts), (old, old_counts) = pair
        np.testing.assert_array_equal(new.mvs, old.mvs)
        np.testing.assert_array_equal(new.sads, old.sads)
        np.testing.assert_array_equal(new.zero_sads, old.zero_sads)
        assert list(new_counts.items()) == list(old_counts.items())
        return new

    @pytest.mark.parametrize("srange", [1, 4, 16])
    @pytest.mark.parametrize("subpel_depth", [0, 2])
    def test_8bit_planes_are_equal(self, monkeypatch, rng, srange, subpel_depth):
        h, w = 48, 80  # 3 x 5 macroblocks, non-square
        ref = rng.integers(0, 256, size=(h, w)).astype(np.float64)
        cur = np.clip(np.roll(ref, (2, -1), axis=(0, 1)) + rng.integers(-3, 4, (h, w)), 0, 255)
        cur[32:, :32] = ref[32:, :32]  # static blocks: below the skip threshold
        ref[:16, 32:] = cur[:16, 32:] = 77.0  # flat: every offset ties, nobody moves
        ref[10:38, 10:38] = 120.0  # a plateau around block (16, 16) ...
        ref[16:32, 16:32] = 130.0
        cur[16:32, 16:32] = 100.0  # ... whose escapes tie: first in raster order wins
        seeds = rng.integers(-srange, srange + 1, size=(15, 2))
        seeds[::2] = (2, -1)  # the true shift: lowers best_sads before the search
        (new, new_counts), (old, old_counts) = _both_searches(
            monkeypatch, cur, ref, srange, subpel_depth=subpel_depth,
            init_mvs=seeds, skip_threshold=16.0,
        )
        np.testing.assert_array_equal(new.mvs, old.mvs)
        np.testing.assert_array_equal(new.sads, old.sads)
        np.testing.assert_array_equal(new.zero_sads, old.zero_sads)
        assert list(new_counts.items()) == list(old_counts.items())
        assert np.any(new.mvs) and not np.all(np.any(new.mvs, axis=1))

    def test_plateau_ties_resolve_to_first_raster_offset(self, monkeypatch):
        ref = np.full((48, 48), 120.0)
        ref[16:32, 16:32] = 130.0
        cur = np.full((48, 48), 120.0)
        cur[16:32, 16:32] = 100.0
        (new, _), (old, _) = _both_searches(monkeypatch, cur, ref, 4, subpel_depth=0)
        assert tuple(new.mvs[4] // 4) == tuple(old.mvs[4] // 4) == (-4, -4)
        assert not np.any(np.delete(new.mvs, 4, axis=0))  # flat blocks stay put

    @pytest.mark.parametrize("srange", [1, 4, 16])
    @pytest.mark.parametrize("levels", [(100, 100), (90, 140)])
    def test_constant_planes_tie_everywhere(self, monkeypatch, srange, levels):
        """Every candidate's SAD and bound equal the zero vector's: nobody
        moves, since no candidate beats the incumbent strictly."""
        ref = np.full((48, 64), float(levels[0]))
        cur = np.full((48, 64), float(levels[1]))
        new = self._assert_equal(_both_searches(monkeypatch, cur, ref, srange, subpel_depth=0))
        assert not np.any(new.mvs)

    @pytest.mark.parametrize("srange", [1, 4, 16])
    def test_stripes_tie_at_the_minimum(self, monkeypatch, srange):
        """Two-level stripes two rows wide, the current plane one row down:
        every vector with ``dy % 4 == 3`` scores 0 at every ``dx``, so the
        bound equals ``U`` at up to 264 minimisers per block and the first
        one in raster order wins."""
        ref = np.tile(np.repeat([90.0, 110.0], 2), 12)[:, None] * np.ones((1, 64))
        cur = np.roll(ref, 1, axis=0)
        new = self._assert_equal(_both_searches(monkeypatch, cur, ref, srange, subpel_depth=0))
        first_dy = next(dy for dy in range(-srange, srange + 1) if dy % 4 == 3)
        assert tuple(new.mvs[5] // 4) == (first_dy, -srange)
        assert new.sads[5] == 0 < new.zero_sads[5]

    def test_seed_tied_with_the_window_minimum_is_kept(self, monkeypatch):
        """A bump under the middle block: only vectors with ``|dy|`` or
        ``|dx|`` of 16 clear it, all scoring 0.  The seed (16, 16), last in
        raster order, already scores 0 and must stay: the first raster
        minimiser (-16, -16) ties it and does not beat it."""
        ref = np.full((48, 48), 100.0)
        ref[16:32, 16:32] = 160.0
        cur = np.full((48, 48), 100.0)
        seeds = np.zeros((9, 2), dtype=np.int64)
        seeds[4] = (16, 16)
        new = self._assert_equal(
            _both_searches(monkeypatch, cur, ref, 16, subpel_depth=0, init_mvs=seeds)
        )
        assert tuple(new.mvs[4] // 4) == (16, 16) and new.sads[4] == 0

    @pytest.mark.parametrize("srange", [1, 4, 16])
    @pytest.mark.parametrize("subpel_depth", [0, 2])
    def test_skip_gated_subsets_and_border_vectors(self, monkeypatch, rng, srange, subpel_depth):
        """Textured content moved by ``(srange, -srange)``, a corner of the
        window, whose pad is only two pixels wider; half the blocks are
        static and skipped, and the seeds sit on the window's edges."""
        ref = _textured(rng, 64, 96)
        cur = np.roll(ref, (-srange, srange), axis=(0, 1))
        cur[32:] = ref[32:]  # the bottom half is static: below the skip threshold
        seeds = rng.integers(-srange, srange + 1, size=(24, 2))
        seeds[::3] = (srange, srange)
        seeds[1::3, 0] = -srange
        new = self._assert_equal(_both_searches(
            monkeypatch, cur, ref, srange, subpel_depth=subpel_depth,
            init_mvs=seeds, skip_threshold=16.0,
        ))
        moved = np.any(new.mvs, axis=1)
        assert moved[:12].any() and not moved[12:].any()
        assert (srange, -srange) in {tuple(mv) for mv in new.mvs[:12] // 4}

    @pytest.mark.parametrize("content", ["screencast", "sports"])
    def test_benchmark_content(self, monkeypatch, content):
        """The encoder's own full search of a 192x128 P frame of the content
        ``benchmarks/perf`` encodes: reconstructed reference, seeds and all."""
        args, kwargs = _placebo_p_frame_search(content)
        out = []
        for scan in (False, True):
            with monkeypatch.context() as patch:
                if scan:
                    patch.setattr(motion, "_full_search", _scan_full_search)
                counters = Counters()
                out.append((estimate_motion(*args, **kwargs, counters=counters), counters.as_dict()))
        new = self._assert_equal(out)
        assert np.any(new.mvs)

    @pytest.mark.parametrize("content", ["screencast", "sports"])
    def test_memory_stays_bounded(self, monkeypatch, content):
        """Exact SADs are gathered ``_SAD_BATCH`` candidates at a time: that
        full search peaks at 2.8 (screencast) and 2.7 (sports) MiB, under
        the 3.6 MiB of the per-row SAD surface it replaced.  Gathering all
        survivors at once peaked at 12.6 and 7.4 MiB."""
        import tracemalloc

        args, kwargs = _placebo_p_frame_search(content)
        search, peaks = motion._full_search, []

        def measured(*inner):
            tracemalloc.start()
            try:
                return search(*inner)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(motion, "_full_search", measured)
        estimate_motion(*args, **kwargs)
        assert len(peaks) == 1 and peaks[0] <= 3.7 * 2**20, peaks

    def test_codec_planes_are_on_the_8bit_grid(self, rng, natural_video):
        """Where the integer path's precondition is produced."""
        from repro.codec.encoder import _CodingState
        from repro.codec.presets import preset

        state = _CodingState(natural_video, preset("medium"))
        state.load_frame(natural_video[0])
        wild = tuple(
            rng.normal(128, 200, size=p.shape)
            for p in (state.cur_y, state.cur_u, state.cur_v)
        )
        snapped = state.filter_and_snap(wild, None, 30, 30, Counters())
        for plane in (state.cur_y, state.cur_u, state.cur_v, *snapped):
            np.testing.assert_array_equal(plane, plane.astype(np.uint8))
            assert motion._on_8bit_grid(plane)


# -- the float64 search the integer one replaced, kept as its oracle ----------


def _float_sad(a, b):
    return np.abs(a - b).sum(axis=(1, 2))


def _float_interp(padded, pad, mvs_qpel, ys, xs, bs):
    """Quarter-pel bilinear prediction in float64."""
    mvs = np.asarray(mvs_qpel, dtype=np.int64)
    int_y, frac_y = np.divmod(mvs[:, 0], 4)
    int_x, frac_x = np.divmod(mvs[:, 1], 4)
    window = _gather(padded, ys + pad + int_y, xs + pad + int_x, bs + 1, bs + 1)
    fy = frac_y[:, None, None].astype(np.float64)
    fx = frac_x[:, None, None].astype(np.float64)
    return (
        (4 - fy) * (4 - fx) * window[:, :bs, :bs]
        + (4 - fy) * fx * window[:, :bs, 1:]
        + fy * (4 - fx) * window[:, 1:, :bs]
        + fy * fx * window[:, 1:, 1:]
    ) / 16.0


def _float_log_search(cur_blocks, padded, ys, xs, pad, bs, srange, max_iters, best_mvs, best_sads, counters):
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
                blocks_ref = _gather(
                    padded, ys[idx] + pad + cand[idx, 0], xs[idx] + pad + cand[idx, 1], bs, bs
                )
                sads = _float_sad(cur_blocks[idx], blocks_ref)
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


def _float_subpel_refine(cur_blocks, padded, ys, xs, pad, bs, srange, int_mvs, best_sads, depth, counters):
    n = cur_blocks.shape[0]
    best_q = np.clip(int_mvs, -srange, srange) * 4
    limit = 4 * srange + 3
    for step in [2] if depth == 1 else [2, 1]:
        improved_mvs = best_q.copy()
        improved_sads = best_sads.copy()
        for hy in (-step, 0, step):
            for hx in (-step, 0, step):
                if hy == 0 and hx == 0:
                    continue
                cand = np.clip(best_q + (hy, hx), -limit, limit)
                sads = _float_sad(cur_blocks, _float_interp(padded, pad, cand, ys, xs, bs))
                counters.add("sad", n)
                counters.add("interp_halfpel", n)
                better = sads < improved_sads
                improved_sads[better] = sads[better]
                improved_mvs[better] = cand[better]
        best_q = improved_mvs
        best_sads = improved_sads
    return best_q, best_sads


def _float_estimate_motion(
    current, reference_padded, pad, block_size, search_method="log",
    search_range=8, subpel_depth=1, refine_iterations=8, init_mvs=None,
    skip_threshold=None, counters=None,
):
    """``estimate_motion`` as it ran in float64 on gathered windows."""
    current = np.asarray(current, dtype=np.float64)
    padded = np.asarray(reference_padded, dtype=np.float64)
    height, width = current.shape
    bs = block_size
    ys, xs = block_positions(height, width, bs)
    cur_blocks = _gather(current, ys, xs, bs, bs)
    n = cur_blocks.shape[0]
    zero_sads = _float_sad(cur_blocks, _gather(padded, ys + pad, xs + pad, bs, bs))
    counters.add("sad", n)
    best_mvs = np.zeros((n, 2), dtype=np.int64)
    best_sads = zero_sads.copy()
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
            seeds = np.clip(np.asarray(init_mvs, np.int64)[active], -search_range, search_range)
            if np.any(seeds):
                seed_blocks = _gather(
                    padded, a_ys + pad + seeds[:, 0], a_xs + pad + seeds[:, 1], bs, bs
                )
                seed_sads = _float_sad(a_blocks, seed_blocks)
                counters.add("sad", active.size)
                better = seed_sads < a_sads
                a_mvs[better] = seeds[better]
                a_sads[better] = seed_sads[better]
        if search_method == "full":
            a_mvs, a_sads = _scan_full_search(
                current, padded, pad, bs, search_range, active, a_mvs, a_sads, counters
            )
        else:
            a_mvs, a_sads = _float_log_search(
                a_blocks, padded, a_ys, a_xs, pad, bs, search_range,
                refine_iterations, a_mvs, a_sads, counters,
            )
        best_mvs[active] = a_mvs
        best_sads[active] = a_sads
    mvs_qpel = best_mvs * 4
    if subpel_depth > 0 and search_method != "none" and active.size:
        a_qpel, a_sads = _float_subpel_refine(
            cur_blocks[active], padded, ys[active], xs[active], pad, bs,
            search_range, best_mvs[active], best_sads[active], subpel_depth, counters,
        )
        mvs_qpel[active] = a_qpel
        best_sads[active] = a_sads
    counters.add("me_blocks", n)
    return motion.MotionField(mvs=mvs_qpel, sads=best_sads, zero_sads=zero_sads)


class TestIntegerSearchAgainstFloat:
    """On 8-bit planes the integer search is the float64 search, bit for bit:
    the same vectors, SADs, zero-vector SADs and ordered counters."""

    @staticmethod
    def _planes(rng, h=48, w=80):
        """Moving texture (3 x 5 macroblocks) with static, flat, plateau and
        striped blocks, all on the 8-bit grid."""
        ref = _textured(rng, h, w)
        cur = np.clip(np.roll(ref, (2, -3), axis=(0, 1)) + rng.integers(-3, 4, (h, w)), 0, 255)
        cur[32:, :32] = ref[32:, :32]  # static blocks: below the skip threshold
        ref[:20, 60:] = 77.0  # flat around block 4, searched: its seed,
        cur[:16, 64:] = 80.0  # like every nearby candidate, ties zero
        ref[10:38, 10:38] = 120.0  # a plateau around block 6 ...
        ref[16:32, 16:32] = 130.0
        cur[16:32, 16:32] = 100.0  # ... whose escapes tie
        ref[28:, 44:68] = np.tile([90.0, 110.0], (20, 12))  # stripes at block 13:
        cur[32:, 48:64] = 100.0  # every integer vector ties, both half-pel columns win
        return cur, ref

    @staticmethod
    def _run(search, cur, ref, pad, **kwargs):
        counters = Counters()
        mf = search(cur, pad_reference(ref, pad), pad, 16, counters=counters, **kwargs)
        return mf, list(counters.as_dict().items())

    @pytest.mark.parametrize("method", ["log", "full"])
    @pytest.mark.parametrize("srange", [1, 4, 16])
    @pytest.mark.parametrize("subpel_depth", [0, 1, 2])
    @pytest.mark.parametrize("gated", [False, True])
    def test_8bit_planes_are_equal(self, rng, method, srange, subpel_depth, gated):
        cur, ref = self._planes(rng)
        kwargs = dict(
            search_method=method, search_range=srange, subpel_depth=subpel_depth,
            refine_iterations=3,
        )
        if gated:
            seeds = rng.integers(-srange, srange + 1, size=(15, 2))
            seeds[::2] = (2, -3)  # the true shift: lowers best_sads before the search
            seeds[4] = (1, -1)  # inside the flat patch: a tie the zero vector keeps
            kwargs.update(init_mvs=seeds, skip_threshold=16.0)
        (new, new_counts), (old, old_counts) = (
            self._run(search, cur, ref, srange + 2, **kwargs)
            for search in (estimate_motion, _float_estimate_motion)
        )
        np.testing.assert_array_equal(new.mvs, old.mvs)
        np.testing.assert_array_equal(new.sads, old.sads)
        np.testing.assert_array_equal(new.zero_sads, old.zero_sads)
        assert new.sads.dtype == new.zero_sads.dtype == np.float64
        assert new_counts == old_counts
        moved = np.any(new.mvs, axis=1)
        assert moved.any() and not moved.all()

    @pytest.mark.parametrize("subpel_depth", [1, 2])
    def test_fractional_content(self, rng, subpel_depth):
        """Sub-pel optima with fractional SADs: content displaced by a
        quarter pixel, rounded back onto the grid."""
        base = _textured(rng, 49, 81)
        ref = base[:48, :80]
        cur = np.rint(0.75 * base[:48, :80] + 0.25 * base[1:, 1:])
        (new, new_counts), (old, old_counts) = (
            self._run(search, cur, ref, 6, search_range=4, subpel_depth=subpel_depth)
            for search in (estimate_motion, _float_estimate_motion)
        )
        np.testing.assert_array_equal(new.mvs, old.mvs)
        np.testing.assert_array_equal(new.sads, old.sads)
        assert new_counts == old_counts
        assert np.any(new.mvs % 4) and np.any(new.sads % 1)


class TestSubpel:
    def test_halfpel_improves_on_fractional_shift(self, rng):
        # Build a reference, then a current frame displaced by half a pixel.
        base = _textured(rng, 49, 65)
        ref = base[:48, :64]
        half = np.rint((base[:48, :64] + base[:48, 1:65]) / 2.0)  # shifted +0.5 in x
        padded = pad_reference(ref, 8)
        nosub = estimate_motion(
            half, padded, 8, 16, search_range=4, subpel_depth=0
        )
        sub = estimate_motion(
            half, padded, 8, 16, search_range=4, subpel_depth=1
        )
        assert sub.sads.sum() < nosub.sads.sum()

    def test_quarterpel_improves_further(self, rng):
        base = _textured(rng, 49, 65)
        ref = base[:48, :64]
        quarter = np.rint(0.75 * base[:48, :64] + 0.25 * base[:48, 1:65])
        padded = pad_reference(ref, 8)
        half = estimate_motion(quarter, padded, 8, 16, search_range=4, subpel_depth=1)
        qpel = estimate_motion(quarter, padded, 8, 16, search_range=4, subpel_depth=2)
        assert qpel.sads.sum() <= half.sads.sum()

    def test_mvs_are_quarter_pel_units(self, rng):
        ref = _textured(rng, 32, 32)
        mf = estimate_motion(
            _shift(ref, -1, 0), pad_reference(ref, 8), 8, 16,
            search_range=4, subpel_depth=2,
        )
        # Integer displacement of 1 px = 4 quarter-pel units.
        assert tuple(mf.mvs[0]) in {(4, 0), (4, 1), (4, -1), (3, 0), (5, 0)}


class TestEarlySkip:
    def test_static_blocks_not_searched(self, rng):
        ref = _textured(rng, 32, 64)
        counters_gated = Counters()
        counters_full = Counters()
        estimate_motion(
            ref.copy(), pad_reference(ref, 8), 8, 16,
            search_range=6, skip_threshold=10.0, counters=counters_gated,
        )
        estimate_motion(
            ref.copy(), pad_reference(ref, 8), 8, 16,
            search_range=6, counters=counters_full,
        )
        assert counters_gated.get("sad") < counters_full.get("sad")

    def test_zero_sads_reported(self, rng):
        ref = _textured(rng, 32, 32)
        mf = estimate_motion(
            ref.copy(), pad_reference(ref, 8), 8, 16, search_range=4
        )
        assert np.allclose(mf.zero_sads, 0.0)


class TestCompensation:
    def test_integer_mv_is_exact_copy(self, rng):
        ref = _textured(rng, 48, 64)
        padded = pad_reference(ref, 8)
        ys, xs = block_positions(48, 64, 16)
        mvs = np.tile([4 * 2, 4 * -1], (ys.size, 1))  # (2, -1) full-pel
        pred = motion_compensate(padded, 8, mvs, ys, xs, 16)
        for b in range(ys.size):
            y, x = ys[b] + 8 + 2, xs[b] + 8 - 1
            assert np.allclose(pred[b], padded[y : y + 16, x : x + 16])

    def test_halfpel_is_average(self, rng):
        ref = _textured(rng, 32, 32)
        padded = pad_reference(ref, 8)
        ys, xs = block_positions(32, 32, 16)
        mvs = np.tile([0, 2], (ys.size, 1))  # +0.5 px in x
        pred = motion_compensate(padded, 8, mvs, ys, xs, 16)
        b = 0
        a = padded[8:24, 8:24]
        c = padded[8:24, 9:25]
        assert np.allclose(pred[b], (a + c) / 2.0)

    def test_chroma_rounds_to_full_pel(self, rng):
        ref = _textured(rng, 16, 16)
        padded = pad_reference(ref, 4)
        ys = np.array([0])
        xs = np.array([0])
        # Luma mv (8, 8) quarter-pel = 2 px -> 1 chroma px.
        pred = motion_compensate_chroma(
            padded, 4, np.array([[8, 8]]), ys, xs, 8
        )
        assert np.allclose(pred[0], padded[5:13, 5:13])

    def test_counters_cannot_be_passed_positionally(self, rng):
        """A positional ``counters`` once landed in the ``subpel`` slot."""
        padded = pad_reference(_textured(rng, 16, 16), 4)
        ys = xs = np.array([0])
        mvs = np.array([[0, 0]])
        with pytest.raises(TypeError):
            motion_compensate_chroma(padded, 4, mvs, ys, xs, 8, Counters())
        with pytest.raises(TypeError):
            motion_compensate(padded, 4, mvs, ys, xs, 8, Counters())

    def test_zero_vector_chroma_copy_needs_no_interpolation(self, rng):
        """What lets the skip copy take the integer path: on an
        integer-valued reference both paths give the same bits."""
        padded = pad_reference(np.rint(_textured(rng, 32, 48)), 4)
        ys, xs = block_positions(32, 48, 8)
        zeros = np.zeros((ys.size, 2), dtype=np.int64)
        np.testing.assert_array_equal(
            motion_compensate_chroma(padded, 4, zeros, ys, xs, 8, subpel=False),
            motion_compensate_chroma(padded, 4, zeros, ys, xs, 8, subpel=True),
        )
