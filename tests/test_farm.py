"""TranscodeFarm: chaos determinism, survival, degradation, dead letters."""

import pytest

from repro.pipeline.farm import (
    DeadLetter,
    FarmConfig,
    FarmJobError,
    ResilientTranscoder,
    RobustnessReport,
    TranscodeFarm,
)
from repro.pipeline.service import ServiceConfig
from repro.robust.breaker import BreakerState
from repro.robust.faults import FaultPlan
from repro.robust.retry import DeadlinePolicy, RetryPolicy
from repro.video.synthesis import synthesize

CONTENTS = ["natural", "screencast", "gaming", "sports"]


def make_clips():
    return [
        synthesize(content, 48, 32, 6, 12.0, seed=60 + i, name=f"v{i}")
        for i, content in enumerate(CONTENTS)
    ]


def run_farm(fault_plan=None, views=500, config=None, **farm_kwargs):
    farm = TranscodeFarm(
        delivery_backend=farm_kwargs.pop("delivery_backend", "x264:veryslow"),
        popular_backend=farm_kwargs.pop("popular_backend", "x264:veryslow"),
        config=config or FarmConfig(workers=2),
        service_config=ServiceConfig(popular_threshold_views=100),
        fault_plan=fault_plan,
        **farm_kwargs,
    )
    farm.upload_all(make_clips())
    if views:
        farm.simulate_views(views, seed=3)
    farm.finalize()
    return farm


CHAOS_PLAN = FaultPlan(
    seed=42,
    crash_rate=0.3,
    straggler_rate=0.05,
    corrupt_rate=0.05,
    dead_backends=frozenset({"x264:veryslow"}),
)


@pytest.fixture(scope="module")
def fault_free():
    return run_farm()


@pytest.fixture(scope="module")
def chaotic():
    return run_farm(fault_plan=CHAOS_PLAN)


class TestFaultFreeFarm:
    def test_all_jobs_complete_cleanly(self, fault_free):
        report = fault_free.report
        assert report.jobs_total == len(CONTENTS)
        assert report.jobs_completed == report.jobs_total
        assert report.retries == 0
        assert report.downgrades == []
        assert report.dead_letters == []
        assert report.wasted_compute_s == 0.0

    def test_attempts_equal_transcodes(self, fault_free):
        # Two transcodes per upload (universal + delivery) plus one per
        # promotion: no attempt is ever wasted fault-free.
        promotions = sum(
            1 for record in fault_free.catalog.values() if record.popular
        )
        assert fault_free.report.attempts == 2 * len(CONTENTS) + promotions

    def test_breakers_stay_closed(self, fault_free):
        assert set(fault_free.report.breaker_states.values()) == {"closed"}

    def test_makespan_reflects_parallelism(self, fault_free):
        # Two workers: the farm finishes faster than the serial sum.
        assert 0 < fault_free.report.makespan_s < fault_free.costs.compute_hours * 3600


class TestChaosSurvival:
    """The acceptance criteria: survive 30% transients + a dead backend."""

    def test_all_uploads_complete(self, chaotic):
        report = chaotic.report
        assert report.jobs_completed == report.jobs_total == len(CONTENTS)
        assert not any(l.stage == "upload" for l in report.dead_letters)
        assert set(chaotic.catalog) == {f"v{i}" for i in range(len(CONTENTS))}

    def test_dead_backend_breaker_ends_open(self, chaotic):
        assert chaotic.report.breaker_states["x264:veryslow"] == "open"
        assert chaotic.breaker_state("x264:veryslow") is BreakerState.OPEN

    def test_faults_were_actually_injected_and_handled(self, chaotic):
        report = chaotic.report
        assert isinstance(report, RobustnessReport)
        assert isinstance(chaotic.service.delivery, ResilientTranscoder)
        assert report.outage_failures > 0
        assert report.transient_failures + report.corrupt_detected > 0
        assert report.downgrades  # the dead rung forced degradation

    def test_retry_compute_is_booked(self, chaotic, fault_free):
        assert chaotic.report.wasted_compute_s > 0
        assert chaotic.costs.compute_hours > fault_free.costs.compute_hours

    def test_catalog_outputs_are_not_corrupted(self, chaotic):
        # Every record that survived chaos holds a playable delivery copy.
        for record in chaotic.catalog.values():
            assert record.delivery_bytes > 0


class TestStreamCorruptionChaos:
    """Bitstream-level corruption: frames conceal, the report surfaces it."""

    @pytest.fixture(scope="class")
    def stream_chaotic(self):
        plan = FaultPlan(seed=8, corrupt_stream_rate=0.6)
        return run_farm(fault_plan=plan, views=0)

    def test_jobs_survive_stream_damage(self, stream_chaotic):
        report = stream_chaotic.report
        assert report.jobs_completed == report.jobs_total == len(CONTENTS)
        assert report.stream_corruptions > 0

    def test_report_surfaces_decodable_fraction(self, stream_chaotic):
        report = stream_chaotic.report
        assert report.stream_frames_seen > 0
        assert 0.0 <= report.stream_decodable_fraction <= 1.0
        text = report.to_text()
        assert "stream damage:" in text
        assert "decodable fraction" in text
        assert "stream_corruptions=" in text

    def test_clean_run_hides_the_stream_section(self, fault_free):
        report = fault_free.report
        assert report.stream_corruptions == 0
        assert report.stream_decodable_fraction == 1.0
        assert "stream damage" not in report.to_text()


class TestChaosDeterminism:
    def test_reports_are_byte_identical(self, chaotic):
        again = run_farm(fault_plan=CHAOS_PLAN)
        assert again.report.to_text() == chaotic.report.to_text()

    def test_costs_are_identical(self, chaotic):
        again = run_farm(fault_plan=CHAOS_PLAN)
        assert again.costs.breakdown() == chaotic.costs.breakdown()

    def test_different_seed_differs(self, chaotic):
        plan = FaultPlan(
            seed=43,
            crash_rate=0.3,
            straggler_rate=0.05,
            corrupt_rate=0.05,
            dead_backends=frozenset({"x264:veryslow"}),
        )
        other = run_farm(fault_plan=plan)
        assert other.report.to_text() != chaotic.report.to_text()


class TestDeadLetters:
    def test_total_outage_dead_letters_everything(self):
        # Every rung of every ladder is down: jobs must fail *gracefully*.
        plan = FaultPlan(
            dead_backends=frozenset(
                {
                    "x264:veryslow",
                    "x264:medium",
                    "x264:veryfast",
                    "x264:ultrafast",
                    "qsv",
                }
            )
        )
        farm = run_farm(fault_plan=plan, views=0)
        report = farm.report
        assert report.jobs_completed == 0
        assert report.jobs_dead_lettered == report.jobs_total == len(CONTENTS)
        assert all(isinstance(l, DeadLetter) for l in report.dead_letters)
        assert farm.catalog == {}  # nothing half-ingested
        assert all(l.stage == "upload" for l in report.dead_letters)

    def test_promotion_failure_is_dead_lettered_not_raised(self):
        # Delivery rides an x265 ladder (alive); the entire x264 popular
        # ladder is down, so promotions — and only promotions — fail.
        farm = TranscodeFarm(
            delivery_backend="x265:ultrafast",
            popular_backend="x264:veryslow",
            config=FarmConfig(workers=2, hardware_fallback=None),
            service_config=ServiceConfig(popular_threshold_views=10),
            fault_plan=FaultPlan(
                dead_backends=frozenset(
                    {
                        "x264:veryslow",
                        "x264:medium",
                        "x264:veryfast",
                        "x264:ultrafast",
                    }
                ),
            ),
        )
        farm.upload_all(make_clips())
        promoted = farm.serve_views({"v0": 50})  # crosses the threshold
        farm.finalize()
        assert promoted == []
        assert not farm.catalog["v0"].popular
        letters = [l for l in farm.report.dead_letters if l.stage == "promote"]
        assert letters and letters[0].job == "v0"
        # Views were still served despite the failed promotion.
        assert farm.catalog["v0"].views == 50
        assert farm.costs.egress_gb > 0


class TestDeadlinesAndDegradation:
    def test_live_straggler_storm_degrades_not_dies(self):
        # Stragglers at 1000x on every rung: most transcodes land past the
        # live (1x realtime) budget, but every job still completes.
        plan = FaultPlan(seed=5, straggler_rate=0.9, straggler_factor=1000.0)
        config = FarmConfig(
            workers=1,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.1),
            deadlines=DeadlinePolicy(live_factor=1.0, batch_factor=60.0),
        )
        farm = TranscodeFarm(
            delivery_backend="x264:veryslow",
            config=config,
            fault_plan=plan,
        )
        for clip in make_clips():
            farm.upload(clip, live=True)
        report = farm.finalize()
        assert report.jobs_completed == report.jobs_total
        # Stragglers landed: some transcodes finished past their budget.
        assert report.deadline_misses > 0

    def test_tiny_budget_skips_retries(self):
        # A budget smaller than any backoff: after a failure the farm must
        # degrade immediately instead of sleeping through the deadline.
        plan = FaultPlan(seed=2, crash_rate=1.0, dead_backends=frozenset())
        config = FarmConfig(
            workers=1,
            retry=RetryPolicy(max_attempts=4, base_delay_s=10.0, jitter=0.0),
            deadlines=DeadlinePolicy(live_factor=1.0, batch_factor=1.0,
                                     floor_s=0.05),
        )
        farm = TranscodeFarm(
            delivery_backend="x264:medium", config=config, fault_plan=plan
        )
        farm.upload(make_clips()[0])
        report = farm.finalize()
        assert report.deadline_retry_skips > 0
        assert report.retries == 0  # no backoff ever fit the budget

    def test_budget_exhausted_mid_ladder_degrades_with_reason(self):
        # Crash every attempt under a budget too small for any backoff:
        # the job must fall rung to rung for the *deadline* reason -- the
        # degradation ladder keeps moving even after the budget is spent
        # mid-ladder, because the last rung is the only alternative to
        # losing the job.
        plan = FaultPlan(seed=2, crash_rate=1.0, dead_backends=frozenset())
        config = FarmConfig(
            workers=1,
            retry=RetryPolicy(max_attempts=3, base_delay_s=10.0, jitter=0.0),
            deadlines=DeadlinePolicy(live_factor=1.0, batch_factor=1.0,
                                     floor_s=0.05),
        )
        farm = TranscodeFarm(
            delivery_backend="x264:veryslow", config=config, fault_plan=plan
        )
        farm.upload(make_clips()[0])
        report = farm.finalize()
        deadline_downgrades = [
            e for e in report.downgrades if e.reason == "deadline"
        ]
        assert deadline_downgrades
        # Every rung was visited in ladder order before the dead letter.
        specs = [e.from_spec for e in report.downgrades]
        assert specs == sorted(set(specs), key=specs.index)
        assert report.jobs_completed == 0
        assert report.dead_letters


class TestJobStream:
    """execute_job: the traffic simulator's entry point into the farm."""

    def test_job_timing_accounts_service(self):
        from repro.core.scenarios import Scenario

        farm = TranscodeFarm(config=FarmConfig(workers=1))
        clip = make_clips()[0]
        timing = farm.execute_job(clip, Scenario.VOD, at_s=12.5)
        assert timing.completed
        assert timing.started_s == 12.5
        assert timing.finished_s > timing.started_s
        assert timing.service_s == pytest.approx(
            timing.finished_s - timing.started_s
        )
        assert farm.report.jobs_completed == 1

    def test_time_scale_multiplies_service(self):
        from repro.core.scenarios import Scenario

        clip = make_clips()[0]
        base = TranscodeFarm(config=FarmConfig(workers=1)).execute_job(
            clip, Scenario.VOD, at_s=0.0
        )
        scaled = TranscodeFarm(
            config=FarmConfig(workers=1, time_scale=100.0)
        ).execute_job(clip, Scenario.VOD, at_s=0.0)
        assert scaled.service_s == pytest.approx(base.service_s * 100.0)

    def test_memoized_repeats_cost_the_same_simulated_time(self):
        from repro.core.scenarios import Scenario

        from repro.exec import CachingTranscoder, MemoStore

        clip = make_clips()[0]
        for time_scale, plan in (
            (1.0, None),
            # Every wrapper above the memo changes the result it is given:
            # the scaler on each call, the injector on each straggler.
            (100.0, FaultPlan(straggler_rate=1.0)),
        ):
            farm = TranscodeFarm(
                config=FarmConfig(workers=1, time_scale=time_scale),
                fault_plan=plan,
                memoize=True,
            )
            timings = [
                farm.execute_job(clip, Scenario.VOD, at_s=1e4 * i)
                for i in range(4)
            ]
            # The memo replays the encode, but simulated time is
            # unchanged: hit N costs what the original cost, so nothing
            # the wrappers did to one result carried over to the next.
            for repeat in timings[1:]:
                assert repeat.service_s == pytest.approx(timings[0].service_s)
            # Results are values, so the memo shares the one it stored.
            memo = farm.pool["x264:medium"]
            while not isinstance(memo, CachingTranscoder):
                memo = memo.inner
            assert isinstance(memo.store, MemoStore)
            rate = farm.job_rate(clip, Scenario.VOD)
            assert memo.transcode(clip, rate) is memo.transcode(clip, rate)

    def test_quality_is_measured_once_per_source_output_pair(self, monkeypatch):
        from repro.core.scenarios import Scenario
        from repro.encoders import base
        from repro.metrics.psnr import psnr

        measured = []  # (source, output, dB); the references pin the ids

        def counting_psnr(source, output):
            measured.append((source, output, psnr(source, output)))
            return measured[-1][2]

        monkeypatch.setattr(base, "psnr", counting_psnr)
        # memo -> scale -> fault, and most attempts deliver a damaged
        # output: every one of those is a new (source, output) pair.
        farm = TranscodeFarm(
            config=FarmConfig(workers=1, time_scale=100.0),
            fault_plan=FaultPlan(seed=5, corrupt_rate=0.5, corrupt_stream_rate=0.2),
            memoize=True,
        )
        clip = make_clips()[0]
        timings = [
            farm.execute_job(clip, Scenario.VOD, at_s=1e4 * i) for i in range(60)
        ]
        report = farm.finalize()
        floor = farm.config.quality_floor_db

        # The floor check ran on every delivery, each pair was measured once.
        pairs = {(id(source), id(output)) for source, output, _ in measured}
        assert len(measured) == len(pairs)
        injected = list(report.injected.values())
        corruptions = sum(c.corruptions for c in injected)
        damaged = corruptions + sum(c.stream_corruptions for c in injected)
        assert corruptions >= 20
        # Every wrecked output was caught, each counted on its own; under
        # this seed concealment keeps every stream-damaged one above the
        # floor, so detected == injected.
        assert report.corrupt_detected == corruptions
        assert report.corrupt_detected == sum(
            1 for _, _, db in measured if db < floor
        )
        # Clean deliveries shared their memo entry's measurement: one per
        # real encode at most, however many of the 60 jobs it served.
        clean = {
            id(result.output)
            for backend in farm.pool.values()
            for result in backend.inner.inner.store._entries.values()
        }
        clean_measured = [db for _, output, db in measured if id(output) in clean]
        assert 1 <= len(clean_measured) <= len(clean)
        assert len(measured) == len(clean_measured) + damaged
        assert all(db >= floor for db in clean_measured)
        # ... and no damaged output's verdict stuck to the title: every job
        # ended in a delivery that passed the floor, right after the
        # corrupted attempts that were its only failures.
        assert all(timing.completed for timing in timings)
        assert report.attempts == len(timings) + report.corrupt_detected

    def test_configured_and_scheduled_specs_share_one_adapter(self):
        from repro.core.scenarios import Scenario

        farm = TranscodeFarm(
            delivery_backend="x264:medium", popular_backend="x264:slow"
        )
        assert farm._job_adapter("x264:medium") is farm.service.delivery
        assert farm._job_adapter("x264:slow") is farm.service.popular
        clip = make_clips()[0]
        static = farm.execute_job(clip, Scenario.VOD, at_s=0.0)
        chosen = farm.execute_job(clip, Scenario.VOD, at_s=0.0, spec="x264:medium")
        assert (chosen.spec, chosen.service_s) == (static.spec, static.service_s)

    def test_exhausted_ladder_dead_letters_not_raises(self):
        from repro.core.scenarios import Scenario

        dead = frozenset(
            {"x264:medium", "x264:veryfast", "x264:ultrafast", "qsv"}
        )
        farm = TranscodeFarm(
            delivery_backend="x264:medium",
            config=FarmConfig(workers=1),
            fault_plan=FaultPlan(dead_backends=dead),
        )
        timing = farm.execute_job(make_clips()[0], Scenario.VOD, at_s=0.0)
        assert not timing.completed
        assert timing.reason
        # Calling the resilient layer directly surfaces the same
        # exhaustion as the typed error the farm dead-letters on.
        from repro.encoders.base import RateSpec

        with pytest.raises(FarmJobError, match="exhausted its ladder"):
            farm.service.delivery.transcode(
                make_clips()[0], RateSpec.for_crf(28)
            )
        letters = [l for l in farm.report.dead_letters if l.stage == "job"]
        assert len(letters) == 1


class TestFarmConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FarmConfig(workers=0)
        with pytest.raises(ValueError):
            FarmConfig(quality_floor_db=-1)
        with pytest.raises(ValueError):
            FarmConfig(outage_detect_s=-0.1)
        with pytest.raises(ValueError):
            FarmConfig(time_scale=0.0)
        with pytest.raises(ValueError):
            FarmConfig(time_scale=float("nan"))
        # A NaN floor compares false against every PSNR, which would
        # switch corrupt-output detection off without a word.
        with pytest.raises(ValueError):
            FarmConfig(quality_floor_db=float("nan"))
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                FarmConfig(outage_detect_s=bad)
            with pytest.raises(ValueError):
                FarmConfig(breaker_cooldown_s=bad)
