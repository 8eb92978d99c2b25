"""Motion estimation/compensation: known displacements, sub-pel, skip gate."""

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
    """Smooth textured content: real video has a smooth SAD landscape.

    (Gradient-descent searches like the log search cannot find a global
    optimum hidden in iid noise -- neither can x264's; smoothness is what
    makes hierarchical search work on natural content.)"""
    from scipy import ndimage

    return ndimage.gaussian_filter(
        rng.uniform(0, 255, size=(h, w)), sigma=2.0, mode="wrap"
    ) * 4.0


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


def _scan_full_search(current, padded, pad, bs, srange, active, best_mvs, best_sads, counters):
    """The sequential per-offset scan ``_full_search`` replaced: its oracle
    for values, raster-order tie-breaking and the ``sad`` count."""
    ys, xs = (origin[active] for origin in block_positions(*current.shape, bs))
    cur_blocks = motion._gather_windows(current, ys, xs, bs, bs)
    for dy in range(-srange, srange + 1):
        for dx in range(-srange, srange + 1):
            if dy == 0 and dx == 0:
                continue
            cand = motion._gather_windows(padded, ys + pad + dy, xs + pad + dx, bs, bs)
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


class TestFullSearchAgainstScan:
    """The SAD surface must reproduce the per-offset scan, not approximate it."""

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

    def test_float_planes_run_the_same_search(self, monkeypatch):
        # Seed picked so that on some static blocks the surface rounds the
        # zero-vector SAD one ulp *below* ``zero_sads`` (it happens to ~15 %).
        rng = np.random.default_rng(0)
        ref = _textured(rng, 64, 96)
        cur = _shift(ref, -3, 2)
        cur[:, :48] = ref[:, :48]  # a static half ...
        cur += rng.normal(0, 20.0, size=ref.shape)  # ... and a large zero-vector SAD
        (new, new_counts), (old, old_counts) = _both_searches(
            monkeypatch, cur, ref, 6, subpel_depth=0
        )
        np.testing.assert_array_equal(new.mvs, old.mvs)
        np.testing.assert_allclose(new.sads, old.sads, rtol=1e-12)
        assert new_counts == old_counts
        # ... which must not leak out as a "better" zero vector.
        unmoved = ~np.any(new.mvs, axis=1)
        assert unmoved.any() and not unmoved.all()
        np.testing.assert_array_equal(new.sads[unmoved], new.zero_sads[unmoved])

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


class TestSubpel:
    def test_halfpel_improves_on_fractional_shift(self, rng):
        # Build a reference, then a current frame displaced by half a pixel.
        base = _textured(rng, 49, 65)
        ref = base[:48, :64]
        half = (base[:48, :64] + base[:48, 1:65]) / 2.0  # shifted +0.5 in x
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
        quarter = 0.75 * base[:48, :64] + 0.25 * base[:48, 1:65]
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
