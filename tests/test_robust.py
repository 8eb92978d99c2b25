"""Robustness building blocks: clock, faults, retry, breaker, degradation."""

import pytest

from repro.encoders.base import RateSpec
from repro.encoders.registry import get_transcoder
from repro.metrics.psnr import psnr
from repro.robust.breaker import BreakerState, CircuitBreaker
from repro.robust.clock import EventQueue, SimClock
from repro.robust.degrade import degradation_ladder
from repro.robust.faults import (
    BackendOutage,
    FaultError,
    FaultPlan,
    FaultyTranscoder,
    TransientFault,
)
from repro.robust.retry import DeadlineBudget, DeadlinePolicy, RetryPolicy
from repro.core.scenarios import Scenario
from repro.video.synthesis import synthesize


@pytest.fixture(scope="module")
def clip():
    return synthesize("natural", 48, 32, 4, 8.0, seed=11, name="clip")


class TestSimClock:
    def test_advance(self):
        clock = SimClock()
        assert clock.now == 0.0
        clock.advance(1.5)
        clock.advance(0.25)
        assert clock.now == pytest.approx(1.75)

    def test_seek(self):
        clock = SimClock(start=5.0)
        clock.seek(2.0)  # another worker's frontier may be earlier
        assert clock.now == 2.0

    def test_advance_to_never_rewinds(self):
        # The event-loop contract: a stale target is a no-op, so the
        # traffic simulator's global clock is monotone even when events
        # carry equal timestamps.
        clock = SimClock(start=3.0)
        assert clock.advance_to(1.0) == 3.0
        assert clock.now == 3.0
        assert clock.advance_to(3.0) == 3.0
        assert clock.advance_to(4.5) == 4.5
        assert clock.now == 4.5

    def test_validation(self):
        with pytest.raises(ValueError):
            SimClock(start=-1.0)
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)
        with pytest.raises(ValueError):
            SimClock().seek(-2.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_times_rejected(self, bad):
        with pytest.raises(ValueError):
            SimClock().seek(bad)
        with pytest.raises(ValueError):
            SimClock().advance(bad)
        with pytest.raises(ValueError):
            SimClock().advance_to(bad)
        with pytest.raises(ValueError):
            SimClock(start=bad)


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.schedule(3.0, "c")
        queue.schedule(1.0, "a")
        queue.schedule(2.0, "b")
        assert [queue.pop() for _ in range(3)] == [
            (1.0, "a"), (2.0, "b"), (3.0, "c")
        ]

    def test_ties_break_by_insertion_order(self):
        # Payloads are never compared, so simultaneous events need no
        # ordering of their own -- and replay identically.
        queue = EventQueue()
        queue.schedule(5.0, {"first": True})
        queue.schedule(5.0, {"second": True})
        assert queue.pop()[1] == {"first": True}
        assert queue.pop()[1] == {"second": True}

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue and len(queue) == 0
        queue.schedule(0.0, "x")
        assert queue and len(queue) == 1

    def test_empty_pops_raise(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_timestamps_rejected(self, bad):
        with pytest.raises(ValueError):
            EventQueue().schedule(bad, "x")


class TestFaultPlan:
    def test_taxonomy_roots_at_fault_error(self):
        # Callers can catch every injected failure with one except clause.
        assert issubclass(TransientFault, FaultError)
        assert issubclass(BackendOutage, FaultError)
        assert issubclass(FaultError, Exception)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=0.6, straggler_rate=0.3, corrupt_rate=0.2)
        for factor in (0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                FaultPlan(straggler_factor=factor)
        with pytest.raises(ValueError):
            FaultPlan(crash_waste=1.5)
        with pytest.raises(ValueError):
            FaultPlan(corrupt_stream_rate=1.2)
        with pytest.raises(ValueError):
            FaultPlan(
                crash_rate=0.5, corrupt_rate=0.3, corrupt_stream_rate=0.3
            )

    def test_rng_streams_are_independent(self):
        plan = FaultPlan(seed=7)
        a = [plan.rng_for("x264:medium").random() for _ in range(2)]
        b = [plan.rng_for("qsv").random() for _ in range(2)]
        assert a[0] == a[1]  # same key, fresh stream: reproducible
        assert a[0] != b[0]  # different key: different stream


class TestFaultyTranscoder:
    def test_dead_backend_raises_outage(self, clip):
        plan = FaultPlan(dead_backends=frozenset({"x264:medium"}))
        faulty = FaultyTranscoder(
            get_transcoder("x264:medium"), plan, key="x264:medium"
        )
        with pytest.raises(BackendOutage):
            faulty.transcode(clip, RateSpec.for_crf(23))
        assert faulty.injected.outages == 1

    def test_crash_wastes_compute(self, clip):
        plan = FaultPlan(seed=1, crash_rate=1.0, crash_waste=0.5)
        faulty = FaultyTranscoder(get_transcoder("x264:ultrafast"), plan)
        with pytest.raises(TransientFault) as info:
            faulty.transcode(clip, RateSpec.for_crf(23))
        assert info.value.wasted_seconds > 0
        assert faulty.injected.crashes == 1

    def test_straggler_multiplies_seconds(self, clip):
        clean = get_transcoder("x264:ultrafast").transcode(
            clip, RateSpec.for_crf(23)
        )
        plan = FaultPlan(seed=1, straggler_rate=1.0, straggler_factor=25.0)
        faulty = FaultyTranscoder(get_transcoder("x264:ultrafast"), plan)
        slow = faulty.transcode(clip, RateSpec.for_crf(23))
        assert slow.seconds == pytest.approx(clean.seconds * 25.0)
        assert faulty.injected.stragglers == 1

    def test_corruption_collapses_quality(self, clip):
        plan = FaultPlan(seed=1, corrupt_rate=1.0)
        faulty = FaultyTranscoder(get_transcoder("x264:ultrafast"), plan)
        result = faulty.transcode(clip, RateSpec.for_crf(23))
        assert result.quality_db < 15.0
        assert psnr(clip, result.output) < 15.0
        assert faulty.injected.corruptions == 1

    def test_stream_corruption_degrades_not_destroys(self, clip):
        """corrupt_stream damages the *bitstream*; the resilient decoder
        conceals the hit frames, so the output survives with full frame
        count and bounded damage -- unlike corrupt_rate's wrecked planes."""
        plan = FaultPlan(seed=1, corrupt_stream_rate=1.0)
        faulty = FaultyTranscoder(get_transcoder("x264:ultrafast"), plan)
        result = faulty.transcode(clip, RateSpec.for_crf(23))
        assert faulty.injected.stream_corruptions == 1
        assert faulty.injected.stream_frames_seen == len(clip)
        assert len(result.output) == len(clip)
        assert result.output.name == clip.name
        # Concealment keeps the output watchable: quality is far above
        # the single-digit PSNR of a plane-inverted corruption.
        assert psnr(clip, result.output) > 15.0

    def test_stream_corruption_is_deterministic(self, clip):
        plan = FaultPlan(seed=3, corrupt_stream_rate=1.0)

        def run():
            faulty = FaultyTranscoder(get_transcoder("x264:ultrafast"), plan)
            out = faulty.transcode(clip, RateSpec.for_crf(23)).output
            return [f.y.tobytes() for f in out.frames], (
                faulty.injected.stream_corrupted_frames
            )

        assert run() == run()

    def test_fault_sequence_is_deterministic(self, clip):
        plan = FaultPlan(seed=9, crash_rate=0.5)

        def run():
            faulty = FaultyTranscoder(get_transcoder("x264:ultrafast"), plan)
            events = []
            for _ in range(6):
                try:
                    faulty.transcode(clip, RateSpec.for_crf(23))
                    events.append("ok")
                except TransientFault:
                    events.append("crash")
            return events

        assert run() == run()


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.0)
        delays = [policy.backoff_s(n) for n in (1, 2, 3, 4, 5)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert delays[2] == pytest.approx(0.4)
        assert delays[3] == pytest.approx(0.5)  # capped
        assert delays[4] == pytest.approx(0.5)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=1.0, jitter=0.2)
        a = policy.backoff_s(1, key="x264:medium")
        b = policy.backoff_s(1, key="x264:medium")
        other = policy.backoff_s(1, key="qsv")
        assert a == b
        assert a != other  # different keys desynchronize
        assert 0.8 <= a <= 1.2

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        for name in ("base_delay_s", "multiplier", "max_delay_s"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError):
                    RetryPolicy(**{name: bad})
        with pytest.raises(ValueError):
            RetryPolicy().backoff_s(0)


class TestDeadlines:
    def test_live_budget_is_realtime(self, clip):
        policy = DeadlinePolicy(live_factor=1.0, batch_factor=60.0)
        assert policy.budget_s(clip, Scenario.LIVE) == pytest.approx(clip.duration)
        assert policy.budget_s(clip, Scenario.VOD) == pytest.approx(
            clip.duration * 60.0
        )

    def test_scenario_realtime_flag(self):
        assert Scenario.LIVE.realtime
        assert not Scenario.VOD.realtime
        assert not Scenario.POPULAR.realtime

    def test_budget_tracks_clock(self):
        clock = SimClock()
        budget = DeadlineBudget(clock, 1.0)
        assert budget.allows(0.9)
        clock.advance(0.6)
        assert budget.remaining_s == pytest.approx(0.4)
        assert not budget.allows(0.5)
        clock.advance(0.5)
        assert budget.exceeded

    def test_unlimited_budget(self):
        budget = DeadlineBudget(SimClock(), None)
        assert budget.allows(1e12)
        assert not budget.exceeded

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlineBudget(SimClock(), float("nan"))
        with pytest.raises(ValueError):
            DeadlinePolicy(live_factor=0)
        for name in ("live_factor", "batch_factor", "floor_s"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError):
                    DeadlinePolicy(**{name: bad})


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=10.0)
        for _ in range(2):
            breaker.record_failure(now=0.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(now=0.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(now=5.0)

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=10.0)
        breaker.record_failure(now=0.0)
        assert not breaker.allow(now=9.0)
        assert breaker.allow(now=10.0)  # the probe
        assert not breaker.allow(now=10.0)  # only one probe admitted
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(now=10.0)

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=10.0)
        breaker.record_failure(now=0.0)
        assert breaker.allow(now=11.0)
        breaker.record_failure(now=11.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(now=20.0)  # cooldown restarted at t=11
        assert breaker.allow(now=21.0)

    def test_half_open_admits_bounded_probes(self):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=10.0, half_open_probes=2
        )
        breaker.record_failure(now=0.0)
        assert breaker.allow(now=10.0)
        assert breaker.allow(now=10.0)  # second probe fits the bound
        assert not breaker.allow(now=10.0)  # third does not
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_recovery_after_repeated_cooldowns(self):
        # A backend that stays down through several probe windows still
        # closes the moment a probe finally succeeds.
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=10.0)
        breaker.record_failure(now=0.0)
        for when in (10.0, 21.0, 32.0):
            assert breaker.allow(now=when)  # one probe per window
            breaker.record_failure(now=when)
            assert breaker.state is BreakerState.OPEN
        assert breaker.allow(now=42.0)
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.consecutive_failures == 0

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=1.0)
        breaker.record_failure(now=0.0)
        breaker.record_failure(now=0.0)
        breaker.record_success()
        assert breaker.consecutive_failures == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=0)
        # A NaN cooldown would re-admit the instant the breaker opened
        # (``now - opened_at < nan`` is never true); inf never re-admits.
        for cooldown in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                CircuitBreaker(cooldown_s=cooldown)
        with pytest.raises(ValueError):
            CircuitBreaker(half_open_probes=0)


class TestDegradationLadder:
    def test_software_ladder_ends_in_hardware(self):
        ladder = degradation_ladder("x264:veryslow")
        assert ladder == [
            "x264:veryslow",
            "x264:medium",
            "x264:veryfast",
            "x264:ultrafast",
            "qsv",
        ]

    def test_only_faster_presets_are_fallbacks(self):
        ladder = degradation_ladder("x264:veryfast")
        assert ladder == ["x264:veryfast", "x264:ultrafast", "qsv"]

    def test_default_preset_resolved(self):
        # Bare "x264" runs medium, so medium is not its own fallback.
        ladder = degradation_ladder("x264")
        assert ladder[0] == "x264"
        assert "x264:medium" not in ladder
        assert "x264:veryfast" in ladder

    def test_hardware_is_its_own_ladder(self):
        assert degradation_ladder("nvenc") == ["nvenc"]

    def test_no_hardware_fallback(self):
        ladder = degradation_ladder("x264:medium", hardware_fallback=None)
        assert ladder == ["x264:medium", "x264:veryfast", "x264:ultrafast"]

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown backend"):
            degradation_ladder("h263")
        with pytest.raises(ValueError, match="unknown preset"):
            degradation_ladder("x264:warp9")
        with pytest.raises(ValueError, match="hardware fallback"):
            degradation_ladder("x264:medium", hardware_fallback="x265")
        with pytest.raises(ValueError, match="does not take a preset"):
            degradation_ladder("qsv:fast")
