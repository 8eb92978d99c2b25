"""Traffic layer: arrivals, admission, autoscaling, SLO accounting, the loop."""

import dataclasses
import hashlib
import inspect

import pytest

from repro.core.scenarios import Scenario
from repro.traffic import (
    AdmissionConfig,
    AdmissionController,
    ArrivalConfig,
    Decision,
    AutoscalerConfig,
    FleetFaultPlan,
    FleetStats,
    LatencySummary,
    NAIVE_POLICY,
    PredictionStats,
    QueueDepthAutoscaler,
    RECOVERY_POLICY,
    ScaleEvent,
    ScenarioPolicy,
    ScenarioStats,
    SpikeWindow,
    TrafficConfig,
    TrafficSimulator,
    generate_arrivals,
    generate_spikes,
    percentile,
    rate_at,
    resolve_profile,
    run_traffic,
)

# ---------------------------------------------------------------------------
# Arrivals
# ---------------------------------------------------------------------------


class TestArrivalConfig:
    def test_shares_partition(self):
        config = ArrivalConfig(upload_share=0.5, live_share=0.2)
        assert config.vod_share == pytest.approx(0.3)
        total = sum(
            config.base_rate(s)
            for s in (Scenario.UPLOAD, Scenario.LIVE, Scenario.VOD)
        )
        assert total == pytest.approx(config.rps)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_s": 0},
            {"duration_s": float("inf")},
            {"rps": -0.1},
            {"rps": float("nan")},
            {"upload_share": 0.8, "live_share": 0.4},
            {"upload_share": -0.1},
            {"diurnal_amplitude": 1.0},
            {"diurnal_period_s": 0},
            {"spike_spacing_s": -1},
            {"spike_multiplier": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ArrivalConfig(**kwargs)


class TestSpikes:
    def test_spikes_are_seeded_and_within_window(self):
        config = ArrivalConfig(duration_s=3600, spike_spacing_s=600,
                               spike_duration_s=60)
        spikes = generate_spikes(config, seed=5)
        assert all(isinstance(s, SpikeWindow) for s in spikes)
        assert spikes == generate_spikes(config, seed=5)
        assert spikes != generate_spikes(config, seed=6)
        assert len(spikes) == 6  # one per slot
        for spike in spikes:
            assert 0 <= spike.start_s < spike.end_s <= config.duration_s

    def test_zero_spacing_disables_spikes(self):
        assert generate_spikes(ArrivalConfig(spike_spacing_s=0), seed=0) == []

    def test_spike_multiplies_live_rate_only(self):
        config = ArrivalConfig(diurnal_amplitude=0.0, spike_multiplier=10.0)
        spikes = generate_spikes(config, seed=1)
        inside = spikes[0].start_s
        live_in = rate_at(config, Scenario.LIVE, inside, spikes)
        live_base = config.base_rate(Scenario.LIVE)
        assert live_in == pytest.approx(live_base * 10.0)
        vod_in = rate_at(config, Scenario.VOD, inside, spikes)
        assert vod_in == pytest.approx(config.base_rate(Scenario.VOD))


class TestGenerateArrivals:
    CONFIG = ArrivalConfig(duration_s=600.0, rps=1.0)

    def test_deterministic_under_seed(self):
        a = generate_arrivals(self.CONFIG, 10, seed=3)
        b = generate_arrivals(self.CONFIG, 10, seed=3)
        assert a == b
        assert a != generate_arrivals(self.CONFIG, 10, seed=4)

    def test_sorted_with_monotone_rids(self):
        requests = generate_arrivals(self.CONFIG, 10, seed=3)
        times = [r.arrival_s for r in requests]
        assert times == sorted(times)
        assert [r.rid for r in requests] == list(range(len(requests)))

    def test_all_classes_present_with_valid_ranks(self):
        requests = generate_arrivals(self.CONFIG, 10, seed=3)
        seen = {r.scenario for r in requests}
        assert seen == {Scenario.UPLOAD, Scenario.LIVE, Scenario.VOD}
        assert all(1 <= r.rank <= 10 for r in requests)
        assert all(0 <= r.arrival_s < self.CONFIG.duration_s for r in requests)

    def test_diurnal_modulates_rate(self):
        # A full sine period fits the window: the busy half-period must
        # carry more arrivals than the quiet one.
        config = ArrivalConfig(
            duration_s=2000.0, rps=2.0, diurnal_amplitude=0.8,
            diurnal_period_s=2000.0, spike_spacing_s=0,
        )
        requests = generate_arrivals(config, 10, seed=9)
        first = sum(1 for r in requests if r.arrival_s < 1000.0)
        second = len(requests) - first
        assert first > second * 1.5

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            generate_arrivals(self.CONFIG, 0, seed=0)

    # Captured from the thinning loop that called ``rate_at`` (a linear,
    # first-active scan of the spike list) per candidate: the bisection
    # that replaced it must draw, accept and rank exactly the same.
    @pytest.mark.parametrize(
        "config, count, digest",
        [
            (
                ArrivalConfig(),
                2222,
                "4a59818bc54d076cee380d925cc7e997070cc64124adaf12adb32665c28e9295",
            ),
            (
                ArrivalConfig(spike_spacing_s=0.0),
                1492,
                "47c4e7cabe75b6eef0e76c4bf3fab9a89b5c5ef0c92dcc16996527e1ae9057e4",
            ),
            (  # every window overlaps the next two
                ArrivalConfig(spike_spacing_s=120.0, spike_duration_s=300.0),
                8787,
                "64f43462d0ac5fed07e8dac62c1ad7db37ec513226b0b1da6307b57ed1e7600a",
            ),
            (
                ArrivalConfig(diurnal_amplitude=0.0),
                2149,
                "24286015954221e02c5f92ce8dc40a707507cd25f6b5d8a04e62397387b1b5b3",
            ),
        ],
        ids=["default", "no-spikes", "overlapping-spikes", "flat-diurnal"],
    )
    def test_schedule_is_pinned(self, config, count, digest):
        requests = generate_arrivals(config, 12, seed=7)
        assert len(requests) == count
        pinned = hashlib.sha256()
        for r in requests:
            pinned.update(
                repr((r.rid, r.scenario.value, r.arrival_s.hex(), r.rank)).encode()
            )
        assert pinned.hexdigest() == digest

    def test_thinning_accepts_what_the_linear_rate_scan_accepts(self):
        # Windows of unequal length and multiplier, still ordered by start
        # and by end as ``generate_spikes`` orders them: the first window
        # open at ``t`` must be the one ``rate_at`` finds.
        import numpy as np

        from repro.traffic.arrivals import _thin_arrivals

        config = ArrivalConfig(duration_s=900.0, rps=4.0, spike_multiplier=9.0)
        spikes = [
            SpikeWindow(50.0, 200.0, 9.0),
            SpikeWindow(120.0, 260.0, 3.0),
            SpikeWindow(250.0, 260.0, 5.0),
            SpikeWindow(600.0, 900.0, 2.0),
        ]
        rate_max = config.base_rate(Scenario.LIVE) * (1.0 + config.diurnal_amplitude)
        rate_max *= config.spike_multiplier
        rng = np.random.default_rng(21)
        expected, t = [], 0.0
        while True:
            t += float(rng.exponential(1.0 / rate_max))
            if t >= config.duration_s:
                break
            if float(rng.random()) * rate_max < rate_at(
                config, Scenario.LIVE, t, spikes
            ):
                expected.append(t)
        assert len(expected) > 500
        assert _thin_arrivals(
            config, Scenario.LIVE, spikes, np.random.default_rng(21)
        ) == expected


# ---------------------------------------------------------------------------
# Admission
# ---------------------------------------------------------------------------


class TestAdmission:
    def make(self, **live_kwargs):
        live = ScenarioPolicy(max_depth=4, shed_on_deadline=True, **live_kwargs)
        return AdmissionController(AdmissionConfig(live=live))

    def test_admits_when_room(self):
        decision = self.make().decide(
            Scenario.LIVE, depth=0, expected_wait_s=0.0, deadline_slack_s=1.0
        )
        assert isinstance(decision, Decision)
        assert decision.admitted

    def test_live_sheds_on_deadline(self):
        decision = self.make().decide(
            Scenario.LIVE, depth=1, expected_wait_s=2.0, deadline_slack_s=0.5
        )
        assert decision.verdict == "shed"
        assert decision.reason == "deadline"

    def test_live_sheds_on_full_queue(self):
        decision = self.make().decide(
            Scenario.LIVE, depth=4, expected_wait_s=0.0, deadline_slack_s=9.0
        )
        assert decision.verdict == "shed"
        assert decision.reason == "queue-full"

    def test_upload_backpressures_then_sheds(self):
        controller = AdmissionController(AdmissionConfig(
            upload=ScenarioPolicy(
                max_depth=2, retry_on_full=True, max_retries=2,
                retry_base_s=5.0, retry_multiplier=2.0,
            )
        ))
        first = controller.decide(Scenario.UPLOAD, 2, 0.0, 0.0, attempt=1)
        second = controller.decide(Scenario.UPLOAD, 2, 0.0, 0.0, attempt=2)
        final = controller.decide(Scenario.UPLOAD, 2, 0.0, 0.0, attempt=3)
        assert first.verdict == second.verdict == "retry"
        assert first.retry_delay_s == pytest.approx(5.0)
        assert second.retry_delay_s == pytest.approx(10.0)  # geometric
        assert final.verdict == "shed"
        assert final.reason == "retries-exhausted"

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ScenarioPolicy(max_depth=0)
        with pytest.raises(ValueError):
            ScenarioPolicy(retry_base_s=float("inf"))
        for multiplier in (0.9, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ScenarioPolicy(retry_multiplier=multiplier)
        with pytest.raises(ValueError):
            self.make().decide(Scenario.LIVE, -1, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Autoscaler
# ---------------------------------------------------------------------------


class TestAutoscaler:
    CONFIG = AutoscalerConfig(
        min_workers=0, max_workers=4, target_queue_per_worker=2,
        poll_interval_s=5.0, scale_down_cooldown_s=20.0,
    )

    def test_desired_follows_queue_depth(self):
        scaler = QueueDepthAutoscaler(self.CONFIG)
        scaler.active = 1
        assert scaler.desired(0) == 0
        assert scaler.desired(1) == 1
        assert scaler.desired(5) == 3
        assert scaler.desired(100) == 4  # clamped at max

    def test_scale_up_is_immediate(self):
        scaler = QueueDepthAutoscaler(self.CONFIG)
        event = scaler.evaluate(now=0.0, depth=3, busy=0)
        assert event is not None
        assert event.reason == "scale-from-zero"
        assert scaler.active == 2
        event = scaler.evaluate(now=5.0, depth=8, busy=2)
        assert event.reason == "queue-depth"
        assert scaler.active == 4

    def test_scale_down_waits_out_cooldown(self):
        scaler = QueueDepthAutoscaler(self.CONFIG)
        scaler.evaluate(now=0.0, depth=8, busy=0)
        assert scaler.active == 4
        assert scaler.evaluate(now=5.0, depth=2, busy=1) is None  # countdown
        assert scaler.evaluate(now=15.0, depth=2, busy=1) is None
        event = scaler.evaluate(now=25.0, depth=2, busy=1)
        assert event is not None and event.reason == "cooldown-expired"
        assert scaler.active == 1

    def test_busy_workers_block_scale_to_zero(self):
        scaler = QueueDepthAutoscaler(self.CONFIG)
        scaler.evaluate(now=0.0, depth=2, busy=0)
        assert scaler.active == 1
        for t in (5.0, 30.0, 60.0):
            assert scaler.evaluate(now=t, depth=0, busy=1) is None
        assert scaler.evaluate(now=65.0, depth=0, busy=0) is None  # countdown
        event = scaler.evaluate(now=90.0, depth=0, busy=0)
        assert event is not None and event.reason == "scale-to-zero"
        assert scaler.active == 0

    def test_activation_depth_gates_wakeup(self):
        config = AutoscalerConfig(min_workers=0, max_workers=4,
                                  activation_depth=3)
        scaler = QueueDepthAutoscaler(config)
        assert scaler.desired(2) == 0  # asleep, below activation
        assert scaler.desired(3) >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(min_workers=-1)
        with pytest.raises(ValueError):
            AutoscalerConfig(min_workers=5, max_workers=4)
        with pytest.raises(ValueError):
            AutoscalerConfig(poll_interval_s=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(scale_down_cooldown_s=float("nan"))
        with pytest.raises(ValueError):
            QueueDepthAutoscaler(self.CONFIG).desired(-1)


# ---------------------------------------------------------------------------
# SLO accounting
# ---------------------------------------------------------------------------


class TestPercentiles:
    def test_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 95) == 95.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0
        assert percentile(samples, 0) == 1.0

    def test_empty_is_zero(self):
        assert percentile([], 99) == 0.0
        assert LatencySummary.from_samples([]).count == 0

    def test_bounds(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_summary_fields(self):
        summary = LatencySummary.from_samples([3.0, 1.0, 2.0])
        assert summary.count == 3
        assert summary.p50_s == 2.0
        assert summary.max_s == 3.0
        assert summary.mean_s == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# The simulator
# ---------------------------------------------------------------------------

#: Small-but-loaded config: short window, high rate, tiny fleet, fast
#: cooldown -- enough pressure for shedding and scaling in a quick test.
LOADED = TrafficConfig(
    arrivals=ArrivalConfig(
        duration_s=240.0, rps=1.2, spike_spacing_s=120.0,
        spike_duration_s=30.0, spike_multiplier=30.0,
    ),
    autoscaler=AutoscalerConfig(
        min_workers=0, max_workers=2, target_queue_per_worker=4,
        poll_interval_s=5.0, scale_down_cooldown_s=30.0,
    ),
    catalog_size=6,
)


@pytest.fixture(scope="module")
def loaded_report():
    return TrafficSimulator(LOADED, seed=7).run()


class TestSimulator:
    def test_reports_are_byte_identical_under_seed(self, loaded_report):
        again = TrafficSimulator(LOADED, seed=7).run()
        assert again.to_text() == loaded_report.to_text()
        assert again.to_json() == loaded_report.to_json()
        assert again.digest() == loaded_report.digest()

    def test_different_seed_changes_report(self, loaded_report):
        other = TrafficSimulator(LOADED, seed=8).run()
        assert other.digest() != loaded_report.digest()

    def test_live_spikes_overload_bounded_workers(self, loaded_report):
        live = loaded_report.scenarios["live"]
        # The spike exceeds what two workers absorb: load was shed.
        assert live.shed + live.timed_out > 0
        assert loaded_report.shed_fraction > 0

    def test_admitted_live_meets_slo(self, loaded_report):
        # Shedding is what buys this: whatever was admitted finished
        # within the real-time budget at p99.
        live = loaded_report.scenarios["live"]
        assert live.completed > 0
        assert live.slo_violations == 0

    def test_every_arrival_reaches_a_terminal_state(self, loaded_report):
        for stats in loaded_report.scenarios.values():
            assert (
                stats.completed + stats.shed + stats.timed_out
                + stats.dead_lettered
            ) == stats.arrived

    def test_autoscaler_scaled_up_and_back_down(self, loaded_report):
        reasons = {e.reason for e in loaded_report.scale_events}
        assert "scale-from-zero" in reasons
        assert "scale-to-zero" in reasons
        assert loaded_report.peak_workers >= 1
        # The run drains: the last transition returns the fleet to floor.
        assert loaded_report.scale_events[-1].to_workers == 0

    def test_utilization_and_makespan(self, loaded_report):
        assert 0 < loaded_report.utilization <= 1
        assert loaded_report.makespan_s >= loaded_report.duration_s
        assert loaded_report.busy_worker_s > 0

    def test_rendering_is_complete(self, loaded_report):
        text = loaded_report.to_text()
        assert "SLOReport" in text
        assert "upload:" in text and "live:" in text and "vod:" in text
        assert "autoscaler events" in text
        bench = loaded_report.bench_dict()
        assert bench["digest"] == loaded_report.digest()
        assert bench["metrics"]["shed_fraction"] > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrafficConfig(catalog_size=0)
        with pytest.raises(ValueError):
            TrafficConfig(time_scale=0.0)
        with pytest.raises(ValueError):
            TrafficConfig(clip_fps=float("inf"))
        for factor in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError):
                TrafficConfig(upload_factor=factor)


# ---------------------------------------------------------------------------
# Fleet chaos
# ---------------------------------------------------------------------------

#: The LOADED profile with an unreliable fleet underneath it: crashes,
#: stragglers, preemptions, and one correlated outage per 120 s slot.
CHAOTIC = TrafficConfig(
    arrivals=LOADED.arrivals,
    autoscaler=LOADED.autoscaler,
    catalog_size=LOADED.catalog_size,
    fleet=FleetFaultPlan(
        seed=7,
        crash_rate=0.15,
        straggler_rate=0.10,
        preempt_mean_s=120.0,
        preempt_notice_s=20.0,
        outage_spacing_s=120.0,
        fault_domains=2,
    ),
    chaos_profile="test",
)


@pytest.fixture(scope="module")
def chaotic_report():
    return TrafficSimulator(CHAOTIC, seed=7).run()


class TestChaosSimulator:
    def test_chaos_runs_are_byte_identical_under_seed(self, chaotic_report):
        again = TrafficSimulator(CHAOTIC, seed=7).run()
        assert again.to_json() == chaotic_report.to_json()
        assert again.digest() == chaotic_report.digest()

    def test_the_json_of_a_report_is_its_fields(self, chaotic_report):
        def names(cls, *omit):
            return {f.name for f in dataclasses.fields(cls)} - set(omit)

        record = chaotic_report.as_dict()
        assert names(FleetStats) <= set(record["fleet"])
        assert names(LatencySummary) <= set(record["fleet"]["time_to_recover"])
        for stats in record["scenarios"].values():
            assert names(ScenarioStats, "scenario") <= set(stats)
            assert names(LatencySummary) <= set(stats["queue_wait"])
            assert names(LatencySummary) <= set(stats["e2e"])
            assert names(PredictionStats) <= set(stats["prediction"])
        assert record["scale_events"]
        for event in record["scale_events"]:
            assert set(event) == names(ScaleEvent)

    def test_faults_actually_fired(self, chaotic_report):
        fleet = chaotic_report.fleet
        assert fleet is not None
        assert fleet.workers_lost > 0
        assert fleet.interruptions > 0
        assert fleet.outages > 0
        assert chaotic_report.chaos_profile == "test"

    def test_terminal_partition_holds_under_chaos(self, chaotic_report):
        # Satellite of the partition invariant: chaos adds journeys
        # (redelivery, hedge cancellation, drained preemption) but every
        # arrival still lands in exactly one terminal bucket.
        for stats in chaotic_report.scenarios.values():
            assert (
                stats.completed + stats.shed + stats.timed_out
                + stats.dead_lettered
            ) == stats.arrived
            assert stats.redelivered >= 0
            assert stats.hedge_cancelled >= 0
            assert stats.preempted_drained >= 0

    def test_redeliveries_bounded_by_policy(self, chaotic_report):
        fleet = chaotic_report.fleet
        assert fleet.redeliveries > 0
        # Dead letters only happen past the delivery bound, and the
        # fleet's dead letters are a subset of the report's.
        total_dead = sum(
            s.dead_lettered for s in chaotic_report.scenarios.values()
        )
        assert fleet.redelivery_dead_letters <= total_dead

    def test_availability_is_degraded_but_positive(self, chaotic_report):
        assert 0.0 < chaotic_report.fleet.availability < 1.0
        assert chaotic_report.fleet.time_to_recover.count > 0

    def test_scale_down_under_load_never_reclaims_busy(self):
        # Satellite: drive the fleet up with a spike, then let the
        # cooldown scale it down while jobs are still in flight.  The
        # drain-first invariant must hold everywhere the run scales.
        report = TrafficSimulator(CHAOTIC, seed=11).run()
        downs = [
            e for e in report.scale_events
            if e.to_workers < e.from_workers
        ]
        assert downs, "the run never scaled down; the test proves nothing"
        assert report.fleet.reclaimed_busy == 0

    def test_no_plan_means_no_fleet_section(self, loaded_report):
        assert loaded_report.fleet is None
        assert "fleet" not in loaded_report.to_text()

    def test_recovery_policy_beats_naive_on_the_same_faults(self):
        # The committed chaos-smoke configuration (BENCH_chaos.json):
        # default load at the "full" profile.  Recovery must beat naive
        # on both headline SLOs; ci_smoke pins the exact numbers.
        config = TrafficConfig(
            arrivals=ArrivalConfig(duration_s=300.0),
            fleet=resolve_profile("full", 7),
        )
        naive = TrafficSimulator(
            dataclasses.replace(config, recovery=NAIVE_POLICY), seed=7
        ).run()
        recovery = TrafficSimulator(
            dataclasses.replace(config, recovery=RECOVERY_POLICY), seed=7
        ).run()
        assert recovery.deadline_hit_rate > naive.deadline_hit_rate
        assert recovery.fleet.availability > naive.fleet.availability
        assert recovery.fleet.redeliveries > 0
        assert naive.fleet.redeliveries == 0  # one delivery, then lost


# ---------------------------------------------------------------------------
# One worker model: fleet=None is a FleetState under the ideal plan
# ---------------------------------------------------------------------------

#: What ``fleet=None`` resolves to, spelled out.
IDEAL = {"fleet": FleetFaultPlan(cold_start_s=0.0), "recovery": NAIVE_POLICY}

#: Steady, overloaded and bursty load, short and on 3 titles so the
#: whole class costs a few seconds.
SHAPES = {
    "steady": TrafficConfig(
        arrivals=ArrivalConfig(duration_s=120.0), catalog_size=3
    ),
    "overload": TrafficConfig(
        arrivals=ArrivalConfig(duration_s=120.0, rps=2.0),
        autoscaler=AutoscalerConfig(max_workers=3),
        catalog_size=3,
    ),
    "bursty": TrafficConfig(
        arrivals=ArrivalConfig(
            duration_s=120.0, rps=1.0, spike_spacing_s=120.0,
            spike_duration_s=30.0,
        ),
        catalog_size=3,
    ),
}

#: Long jobs and an instant cooldown: scale-downs land while more
#: replicas are busy than the new target, the one regime where draining
#: by count and draining by identity give different reports.
DRAIN = TrafficConfig(
    arrivals=ArrivalConfig(
        duration_s=400.0, rps=0.5, spike_spacing_s=100.0,
        spike_duration_s=20.0,
    ),
    autoscaler=AutoscalerConfig(
        target_queue_per_worker=1, scale_down_cooldown_s=0.0
    ),
    catalog_size=6,
    time_scale=3000.0,
)


def modulo_fleet(report):
    """The report minus the two keys only a configured plan fills in."""
    record = report.as_dict()
    del record["fleet"], record["chaos_profile"]
    return record


class TestOneWorkerModel:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("config", [*SHAPES.values(), DRAIN],
                             ids=[*SHAPES, "drain"])
    def test_no_plan_equals_the_explicit_ideal_plan(self, config, seed):
        implicit = TrafficSimulator(config, seed=seed).run()
        explicit = TrafficSimulator(
            dataclasses.replace(config, **IDEAL), seed=seed
        ).run()
        assert implicit.fleet is None and explicit.fleet is not None
        assert modulo_fleet(implicit) == modulo_fleet(explicit)
        assert explicit.fleet.hedges_launched == 0
        assert explicit.fleet.availability == 1.0

    def test_the_fleet_plan_is_the_only_fault_model(self):
        for entry_point in (TrafficSimulator, run_traffic):
            assert list(inspect.signature(entry_point).parameters) == [
                "config",
                "seed",
            ]

    def test_fault_domains_are_inert_without_outages(self):
        reports = [
            TrafficSimulator(
                dataclasses.replace(
                    SHAPES["bursty"],
                    fleet=FleetFaultPlan(seed=3, fault_domains=domains),
                ),
                seed=1,
            ).run().to_json()
            for domains in (1, 4)
        ]
        assert reports[0] == reports[1]

    def test_scale_down_below_busy_drains_by_identity(self):
        sim = TrafficSimulator(DRAIN, seed=0)
        evaluate = sim.scaler.evaluate
        squeezed = []

        def spy(now, depth, busy):
            event = evaluate(now, depth=depth, busy=busy)
            if event is not None and busy > event.to_workers:
                squeezed.append(event)
            return event

        sim.scaler.evaluate = spy
        report = sim.run()
        assert squeezed, "no scale-down landed below the busy count"
        assert sim.fleet.reclaimed_busy == 0
        assert (
            report.completed + report.shed + report.timed_out
            + report.dead_lettered
        ) == report.arrived
        again = TrafficSimulator(DRAIN, seed=0).run()
        assert again.digest() == report.digest()


class TestEstimatorCleanliness:
    def test_stretched_runs_never_teach_the_estimator(self):
        # Regression: a straggler's 20x service time must not poison the
        # EWMA (it would inflate every later wait estimate and shed
        # admissible work) nor the hedge-delay sample pool.
        config = TrafficConfig(
            arrivals=ArrivalConfig(
                duration_s=120.0, rps=0.5, spike_spacing_s=0.0
            ),
            autoscaler=AutoscalerConfig(min_workers=1, max_workers=2),
            catalog_size=4,
            fleet=FleetFaultPlan(seed=1, straggler_rate=1.0,
                                 straggler_factor=20.0),
        )
        sim = TrafficSimulator(config, seed=3)
        sim.run()
        # Every delivery straggled: zero clean first deliveries, so the
        # estimator still sits at its optimistic prior and the hedge
        # pool is empty.
        for scenario in (Scenario.UPLOAD, Scenario.LIVE, Scenario.VOD):
            assert sim.estimator.expected(scenario, 1) == 0.0
        assert all(not s for s in sim._service_samples.values())

    def test_clean_runs_do_teach_the_estimator(self):
        config = TrafficConfig(
            arrivals=ArrivalConfig(
                duration_s=120.0, rps=0.5, spike_spacing_s=0.0
            ),
            autoscaler=AutoscalerConfig(min_workers=1, max_workers=2),
            catalog_size=4,
            fleet=FleetFaultPlan(seed=1),  # chaos plumbing, zero faults
        )
        sim = TrafficSimulator(config, seed=3)
        report = sim.run()
        assert report.completed > 0
        taught = [
            scenario
            for scenario in (Scenario.UPLOAD, Scenario.LIVE, Scenario.VOD)
            if sim.estimator.expected(scenario, 1) > 0.0
        ]
        assert taught  # completions observed, estimates learned


class TestBackpressure:
    def test_upload_retries_then_drains(self):
        # One worker, a deep upload burst, and a queue bound of 3:
        # uploads must hit backpressure, retry later, and still finish.
        config = TrafficConfig(
            arrivals=ArrivalConfig(
                duration_s=60.0, rps=3.0, upload_share=1.0, live_share=0.0,
                spike_spacing_s=0.0,
            ),
            admission=AdmissionConfig(
                upload=ScenarioPolicy(
                    max_depth=3, retry_on_full=True, max_retries=5,
                    retry_base_s=10.0,
                ),
            ),
            autoscaler=AutoscalerConfig(min_workers=1, max_workers=1),
            catalog_size=4,
        )
        report = TrafficSimulator(config, seed=2).run()
        upload = report.scenarios["upload"]
        assert upload.backpressure_retries > 0
        assert upload.completed > 0
        assert upload.completed + upload.shed == upload.arrived
