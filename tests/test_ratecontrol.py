"""Rate control: CRF constancy, ABR convergence, two-pass allocation."""

import pytest

from repro.codec.ratecontrol import RateControl, RateControlMode
from repro.codec.types import FrameType


class TestCrf:
    def test_constant_qp(self):
        rc = RateControl.crf(28)
        assert rc.frame_qp(FrameType.P) == 28
        rc.feedback(FrameType.P, 28, 1000)
        assert rc.frame_qp(FrameType.P) == 28

    def test_i_frames_finer(self):
        rc = RateControl.crf(28)
        assert rc.frame_qp(FrameType.I) < rc.frame_qp(FrameType.P)

    def test_bounds(self):
        with pytest.raises(ValueError):
            RateControl.crf(99)
        with pytest.raises(ValueError):
            RateControl.crf(-1)

    def test_clamps_at_qp_min(self):
        rc = RateControl.crf(0)
        assert rc.frame_qp(FrameType.I) == 0


class TestAbr:
    def test_requires_positive_rate(self):
        with pytest.raises(ValueError):
            RateControl.abr(0, 30.0)
        with pytest.raises(ValueError):
            RateControl.abr(1000, 0)

    def test_overspend_raises_qp(self):
        rc = RateControl.abr(30_000, 30.0)  # 1000 bits/frame
        qp0 = rc.frame_qp(FrameType.P)
        for _ in range(6):
            rc.feedback(FrameType.P, rc.frame_qp(FrameType.P), 4000)
        assert rc.frame_qp(FrameType.P) > qp0

    def test_underspend_lowers_qp(self):
        rc = RateControl.abr(30_000, 30.0)
        qp0 = rc.frame_qp(FrameType.P)
        for _ in range(6):
            rc.feedback(FrameType.P, rc.frame_qp(FrameType.P), 100)
        assert rc.frame_qp(FrameType.P) < qp0

    def test_converges_with_ideal_model(self):
        """Against a synthetic bits(qp) model, ABR should settle near target."""
        from repro.codec.quant import qp_to_qstep

        scale = 1.0e5  # bits * qstep constant
        rc = RateControl.abr(30_000, 30.0)
        spent = []
        for _ in range(60):
            qp = rc.frame_qp(FrameType.P)
            bits = int(scale / qp_to_qstep(qp))
            rc.feedback(FrameType.P, qp, bits)
            spent.append(bits)
        tail = sum(spent[-20:]) / 20
        assert tail == pytest.approx(1000, rel=0.25)

    def test_rejects_complexities(self):
        with pytest.raises(ValueError):
            RateControl(
                RateControlMode.ABR, bitrate_bps=1e5, fps=30, complexities=[1, 2]
            )

    def test_negative_bits_rejected(self):
        rc = RateControl.abr(1e5, 30)
        with pytest.raises(ValueError):
            rc.feedback(FrameType.P, 30, -1)


class TestTwoPass:
    def test_requires_complexities(self):
        with pytest.raises(ValueError):
            RateControl.two_pass(1e5, 30, [])

    def test_complex_frames_get_more_bits(self):
        rc = RateControl.two_pass(30_000, 30.0, [100, 100, 5000, 100])
        plan = rc._plan
        assert plan[2] > plan[0]
        # qcomp compresses: not fully proportional.
        assert plan[2] / plan[0] < 50

    def test_budget_preserved(self):
        complexities = [500, 1500, 900, 2500]
        rc = RateControl.two_pass(60_000, 30.0, complexities)
        assert sum(rc._plan) == pytest.approx(60_000 / 30.0 * 4)

    def test_plan_exhaustion_raises(self):
        rc = RateControl.two_pass(30_000, 30.0, [100, 100])
        for _ in range(2):
            qp = rc.frame_qp(FrameType.P)
            rc.feedback(FrameType.P, qp, 500)
        with pytest.raises(ValueError, match="plan covers"):
            rc.frame_qp(FrameType.P)

    def test_tracks_target_with_ideal_model(self):
        from repro.codec.quant import qp_to_qstep

        scale = 2.0e5
        complexities = [1000] * 30
        rc = RateControl.two_pass(40_000, 30.0, complexities)
        total = 0
        for _ in range(30):
            qp = rc.frame_qp(FrameType.P)
            bits = int(scale / qp_to_qstep(qp))
            rc.feedback(FrameType.P, qp, bits)
            total += bits
        assert total == pytest.approx(40_000, rel=0.2)
