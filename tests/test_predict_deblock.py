"""Intra prediction and the in-loop deblocking filter."""

import numpy as np
import pytest

from repro.codec.deblock import deblock_plane, edge_threshold
from repro.codec.predict import FLAT_PREDICTOR, dc_predict, intra_cost


class TestDcPredict:
    def test_first_block_uses_flat(self):
        recon = np.zeros((32, 32))
        assert dc_predict(recon, 0, 0, 16) == FLAT_PREDICTOR

    def test_uses_top_row(self):
        recon = np.zeros((32, 32))
        recon[15, 0:16] = 100.0  # row above block at (16, 0)
        assert dc_predict(recon, 16, 0, 16) == pytest.approx(100.0)

    def test_uses_left_column(self):
        recon = np.zeros((32, 32))
        recon[0:16, 15] = 60.0
        assert dc_predict(recon, 0, 16, 16) == pytest.approx(60.0)

    def test_averages_both(self):
        recon = np.zeros((32, 32))
        recon[15, 16:32] = 100.0
        recon[16:32, 15] = 50.0
        assert dc_predict(recon, 16, 16, 16) == pytest.approx(75.0)


class TestIntraCost:
    def test_flat_block_is_free(self):
        blocks = np.full((2, 16, 16), 77.0)
        assert np.allclose(intra_cost(blocks), 0.0)

    def test_busy_block_costs_more(self, rng):
        flat = np.full((1, 16, 16), 100.0)
        busy = rng.uniform(0, 255, size=(1, 16, 16))
        assert intra_cost(busy)[0] > intra_cost(flat)[0]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            intra_cost(np.zeros((16, 16)))


class TestDeblock:
    def _blocky(self):
        """Two flat half-planes with a step at the 8px block edge."""
        plane = np.full((16, 16), 100.0)
        plane[:, 8:] = 106.0
        return plane

    def test_smooths_small_step(self):
        out = deblock_plane(self._blocky(), 8, qp=30)
        step = abs(out[0, 8] - out[0, 7])
        assert step < 6.0

    def test_leaves_true_edges(self):
        plane = np.full((16, 16), 50.0)
        plane[:, 8:] = 220.0  # a real edge, far above threshold
        out = deblock_plane(plane, 8, qp=30)
        assert np.array_equal(out, plane)

    def test_leaves_already_smooth(self):
        plane = np.full((16, 16), 80.0)
        out = deblock_plane(plane, 8, qp=30)
        assert np.array_equal(out, plane)

    def test_activity_gate_blocks_filtering(self):
        plane = self._blocky()
        inactive = np.zeros((2, 2), dtype=bool)
        out = deblock_plane(plane, 8, qp=30, active_blocks=inactive)
        assert np.array_equal(out, plane)

    def test_activity_gate_allows_active_edges(self):
        plane = self._blocky()
        active = np.zeros((2, 2), dtype=bool)
        active[0, 1] = True  # right-top block coded
        out = deblock_plane(plane, 8, qp=30, active_blocks=active)
        # Top half filtered, bottom half untouched.
        assert out[0, 8] != plane[0, 8]
        assert out[15, 8] == plane[15, 8]

    def test_change_bounded_by_tc(self):
        plane = self._blocky()
        out = deblock_plane(plane, 8, qp=20)
        from repro.codec.deblock import _tc

        assert np.max(np.abs(out - plane)) <= _tc(20) + 1e-12

    def test_threshold_grows_with_qp(self):
        assert edge_threshold(40) > edge_threshold(10)

    def test_bad_activity_shape(self):
        with pytest.raises(ValueError, match="activity"):
            deblock_plane(np.zeros((16, 16)), 8, 30, active_blocks=np.ones((3, 3)))

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            deblock_plane(np.zeros((15, 16)), 8, 30)

    def test_counters(self):
        from repro.codec.instrumentation import Counters

        counters = Counters()
        deblock_plane(self._blocky(), 8, qp=30, counters=counters)
        assert counters.get("deblock_edge") > 0

    @pytest.mark.parametrize("block_size", [1, 2, 3])
    def test_rejects_blocks_narrower_than_the_filter(self, block_size):
        """Below 4 px one edge's taps overlap the next edge's writes."""
        with pytest.raises(ValueError, match="at least 4"):
            deblock_plane(np.zeros((12, 12)), block_size, 30)


def _deblock_edge_by_edge(plane, block_size, qp, activity):
    """The per-edge loop ``deblock_plane`` replaced: its oracle for values,
    the vertical-then-horizontal order and the ``deblock_edge`` count."""
    from repro.codec.deblock import _min_step, _tc

    out = np.asarray(plane, dtype=np.float64).copy()
    height, width = out.shape
    threshold = edge_threshold(qp)
    edges = 0
    for col_block in range(1, width // block_size):
        x = col_block * block_size
        p1, p0 = out[:, x - 2], out[:, x - 1]
        q0, q1 = out[:, x], out[:, min(x + 1, width - 1)]
        step = np.abs(p0 - q0)
        mask = (step < threshold) & (step > _min_step())
        if activity is not None:
            strength = activity[:, col_block - 1] | activity[:, col_block]
            mask &= np.repeat(strength, block_size)
        if mask.any():
            tc = _tc(qp)
            dp = np.clip((p1 + 2.0 * p0 + q0) / 4.0 - p0, -tc, tc)
            dq = np.clip((p0 + 2.0 * q0 + q1) / 4.0 - q0, -tc, tc)
            out[:, x - 1] = np.where(mask, p0 + dp, p0)
            out[:, x] = np.where(mask, q0 + dq, q0)
        edges += int(mask.sum())
    for row_block in range(1, height // block_size):
        y = row_block * block_size
        p1, p0 = out[y - 2, :], out[y - 1, :]
        q0, q1 = out[y, :], out[min(y + 1, height - 1), :]
        step = np.abs(p0 - q0)
        mask = (step < threshold) & (step > _min_step())
        if activity is not None:
            strength = activity[row_block - 1, :] | activity[row_block, :]
            mask &= np.repeat(strength, block_size)
        if mask.any():
            tc = _tc(qp)
            dp = np.clip((p1 + 2.0 * p0 + q0) / 4.0 - p0, -tc, tc)
            dq = np.clip((p0 + 2.0 * q0 + q1) / 4.0 - q0, -tc, tc)
            out[y - 1, :] = np.where(mask, p0 + dp, p0)
            out[y, :] = np.where(mask, q0 + dq, q0)
        edges += int(mask.sum())
    return out, edges


class TestDeblockAgainstEdgeLoop:
    """All edges of a direction at once must be the edge-by-edge filter,
    bit for bit, with the same ``deblock_edge`` count."""

    @pytest.mark.parametrize("block_size", [4, 8, 16])
    @pytest.mark.parametrize("qp", [10, 28, 45])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_planes(self, block_size, qp, seed):
        from repro.codec.instrumentation import Counters

        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 5, size=2)
        shape = (rows * block_size, cols * block_size + 2 * block_size)
        # Flat blocks with small steps (filtered), big steps (left alone)
        # and per-pixel noise, so edges of every kind meet.  Half-pixel
        # values make steps land exactly on the thresholds (1.5, and an
        # integer at these qps).
        grid = (shape[0] // block_size, shape[1] // block_size)
        blocks = rng.integers(100, 104 + qp, size=grid)
        plane = np.kron(blocks, np.ones((block_size, block_size)))
        plane += np.rint(rng.normal(0, 3.0, size=shape)) / 2.0
        plane[rng.random(shape) < 0.05] += 60.0
        filtered = []
        for activity in (None, rng.random(grid) < 0.3):
            counters = Counters()
            out = deblock_plane(plane, block_size, qp, activity, counters)
            want, edges = _deblock_edge_by_edge(plane, block_size, qp, activity)
            np.testing.assert_array_equal(out, want)
            assert counters.get("deblock_edge") == edges
            filtered.append(edges)
        assert filtered[0] >= filtered[1] > 0
