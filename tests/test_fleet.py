"""Fleet chaos layer: fault plans, recovery policy, worker lifecycle."""

import dataclasses
import random

import pytest

from repro.traffic import (
    CHAOS_PROFILES,
    NAIVE_POLICY,
    RECOVERY_POLICY,
    FleetFaultPlan,
    FleetState,
    OutageWindow,
    RecoveryPolicy,
    generate_outages,
    resolve_profile,
)
from repro.traffic.fleet import BUSY, COLD, DEAD, IDLE, RETIRED, DispatchFault

# ---------------------------------------------------------------------------
# Plans and policies
# ---------------------------------------------------------------------------


class TestFleetFaultPlan:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_rate": -0.1},
            {"crash_rate": 1.1},
            {"straggler_rate": float("nan")},
            {"crash_rate": 0.6, "straggler_rate": 0.6},
            {"crash_fraction": 0.0},
            {"crash_fraction": 1.5},
            {"straggler_factor": 0.5},
            {"preempt_mean_s": -1.0},
            {"preempt_notice_s": float("inf")},
            {"outage_spacing_s": -5.0},
            {"cold_start_s": float("nan")},
            {"fault_domains": 0},
            {"straggler_factor": float("nan")},
            {"straggler_factor": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FleetFaultPlan(**kwargs)

    def test_worker_streams_are_independent_and_repeatable(self):
        plan = FleetFaultPlan(seed=3)
        a1 = plan.rng_for(0).random(4).tolist()
        a2 = plan.rng_for(0).random(4).tolist()
        b = plan.rng_for(1).random(4).tolist()
        assert a1 == a2  # same worker, same stream
        assert a1 != b  # different worker, different stream
        assert a1 != FleetFaultPlan(seed=4).rng_for(0).random(4).tolist()

    def test_profiles_resolve_with_the_run_seed(self):
        plan = resolve_profile("full", seed=99)
        assert plan.seed == 99
        assert plan.crash_rate == CHAOS_PROFILES["full"].crash_rate
        with pytest.raises(ValueError):
            resolve_profile("nope", seed=0)

    @pytest.mark.parametrize("name", sorted(CHAOS_PROFILES))
    def test_resolving_a_profile_changes_only_the_seed(self, name):
        resolved = dataclasses.asdict(resolve_profile(name, seed=99))
        assert resolved.pop("seed") == 99
        shape = dataclasses.asdict(CHAOS_PROFILES[name])
        del shape["seed"]
        assert resolved == shape


class TestRecoveryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lease_s": 0.0},
            {"heartbeat_s": -1.0},
            {"lease_s": 2.0, "heartbeat_s": 5.0},
            {"max_deliveries": 0},
            {"hedge_p99_multiplier": 0.5},
            {"hedge_min_samples": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryPolicy(**kwargs)

    def test_detection_is_last_heartbeat_plus_lease(self):
        policy = RecoveryPolicy(lease_s=30.0, heartbeat_s=5.0)
        # Worker ready at 10, heartbeats at 10, 15, 20, ...; a death at
        # 23 leaves the beat at 20 as the last renewal: detect at 50.
        assert policy.detection_s(10.0, 23.0) == 50.0
        # A death exactly on a beat renews that beat's lease first.
        assert policy.detection_s(10.0, 20.0) == 50.0
        # Detection never precedes the death itself.
        assert policy.detection_s(0.0, 0.0) == 30.0
        with pytest.raises(ValueError):
            policy.detection_s(10.0, 9.0)

    def test_naive_policy_turns_everything_off(self):
        assert NAIVE_POLICY.max_deliveries == 1
        assert not NAIVE_POLICY.hedge_enabled
        assert not NAIVE_POLICY.drain_on_preempt
        assert not NAIVE_POLICY.replace_on_detect
        # Same environment: detection arithmetic is shared, not policy.
        assert NAIVE_POLICY.detection_s(0.0, 7.0) == (
            RECOVERY_POLICY.detection_s(0.0, 7.0)
        )


class TestOutages:
    PLAN = FleetFaultPlan(seed=11, outage_spacing_s=100.0, fault_domains=3)

    def test_seeded_one_per_slot_within_window(self):
        outages = generate_outages(self.PLAN, 600.0)
        assert outages == generate_outages(self.PLAN, 600.0)
        assert len(outages) == 6
        for slot, window in enumerate(outages):
            assert isinstance(window, OutageWindow)
            assert 100.0 * slot <= window.at_s < 100.0 * (slot + 1)
            assert 0 <= window.domain < 3

    def test_seed_changes_the_schedule(self):
        other = FleetFaultPlan(seed=12, outage_spacing_s=100.0, fault_domains=3)
        assert generate_outages(self.PLAN, 600.0) != generate_outages(
            other, 600.0
        )

    def test_zero_spacing_disables(self):
        assert generate_outages(FleetFaultPlan(seed=1), 600.0) == []


# ---------------------------------------------------------------------------
# Worker lifecycle and the fleet ledgers
# ---------------------------------------------------------------------------


def make_fleet(policy=None, **plan_kwargs):
    plan_kwargs.setdefault("seed", 5)
    return FleetState(FleetFaultPlan(**plan_kwargs), policy)


class TestFleetLifecycle:
    def test_initial_fleet_is_warm_later_spawns_are_cold(self):
        fleet = make_fleet(cold_start_s=15.0)
        first = fleet.spawn(0.0)
        assert first.state == IDLE and first.ready_s == 0.0
        later = fleet.spawn(100.0)
        assert later.state == COLD and later.ready_s == 115.0
        assert later.growth_cold  # a scale-up boot, not a replacement

    def test_domains_partition_by_worker_id(self):
        fleet = make_fleet(fault_domains=2)
        workers = [fleet.spawn(0.0) for _ in range(4)]
        assert [w.domain for w in workers] == [0, 1, 0, 1]
        assert [w.wid for w in fleet.domain_members(0)] == [0, 2]

    def test_assign_release_cycle(self):
        fleet = make_fleet()
        worker = fleet.spawn(0.0)
        fleet.assign(worker, 7)
        assert worker.state == BUSY and worker.attempt_id == 7
        with pytest.raises(RuntimeError):
            fleet.assign(worker, 8)  # already busy
        fleet.release(worker)
        assert worker.state == IDLE and worker.attempt_id is None

    def test_draining_worker_retires_on_release(self):
        fleet = make_fleet()
        worker = fleet.spawn(0.0)
        fleet.assign(worker, 1)
        worker.draining = True
        fleet.release(worker)
        assert worker.state == RETIRED

    def test_kill_records_cause_and_interrupted_attempt(self):
        fleet = make_fleet()
        worker = fleet.spawn(0.0)
        fleet.assign(worker, 3)
        assert fleet.kill(worker, 50.0, "crash") == 3
        assert worker.state == DEAD and fleet.crashes == 1
        assert fleet.kill(worker, 51.0, "crash") is None  # already dead
        with pytest.raises(ValueError):
            fleet.kill(fleet.spawn(0.0), 1.0, "gremlins")

    def test_unknown_cause_is_refused_before_anything_moves(self):
        fleet = make_fleet()
        worker = fleet.spawn(0.0)
        fleet.assign(worker, 4)
        with pytest.raises(ValueError, match="gremlins"):
            fleet.kill(worker, 5.0, "gremlins")
        assert worker.state == BUSY and worker.attempt_id == 4
        assert fleet.lost == 0
        fleet.spawn(10.0)  # no phantom death to pair a replacement with
        assert fleet.ttr_samples == []

    def test_detecting_a_death_that_did_not_happen_is_refused(self):
        fleet = make_fleet()
        worker = fleet.spawn(0.0)
        with pytest.raises(RuntimeError, match="idle"):
            fleet.mark_detected(worker)
        assert not worker.detected
        assert fleet.idle_worker() is worker  # still dispatchable

    def test_replacement_spawn_yields_a_ttr_sample(self):
        fleet = make_fleet(cold_start_s=15.0)
        worker = fleet.spawn(0.0)
        fleet.kill(worker, 40.0, "crash")
        replacement = fleet.spawn(70.0)  # detected at lease expiry
        assert not replacement.growth_cold
        assert fleet.ttr_samples == [replacement.ready_s - 40.0]

    def test_anticipated_kill_hides_recovery_inside_the_notice(self):
        fleet = make_fleet(cold_start_s=15.0, preempt_notice_s=20.0)
        worker = fleet.spawn(0.0)
        fleet.kill(worker, 30.0, "preempt", anticipated=True)
        assert worker.detected  # the drain knew; no lease wait
        assert fleet.ttr_samples == [0.0]  # notice covered the cold start

    def test_undetected_dead_workers_still_count_as_believed_capacity(self):
        fleet = make_fleet()
        worker = fleet.spawn(0.0)
        fleet.kill(worker, 10.0, "crash")
        assert fleet.capacity_count() == 1  # heartbeats "still" renewing
        fleet.mark_detected(worker)
        assert fleet.capacity_count() == 0


class TestReconcile:
    def test_scale_down_retires_idle_and_drains_busy(self):
        fleet = make_fleet()
        workers = [fleet.spawn(0.0) for _ in range(3)]
        fleet.assign(workers[0], 1)
        spawned = fleet.reconcile(10.0, target=1)
        assert spawned == []
        # The two idle replicas retire (highest id first); the busy one
        # keeps its job -- never reclaimed, the scale-down invariant.
        assert workers[2].state == RETIRED and workers[1].state == RETIRED
        assert workers[0].state == BUSY and not workers[0].draining
        assert fleet.reclaimed_busy == 0

    def test_scale_down_below_busy_count_only_drains(self):
        fleet = make_fleet()
        workers = [fleet.spawn(0.0) for _ in range(2)]
        for aid, worker in enumerate(workers):
            fleet.assign(worker, aid)
        fleet.reconcile(10.0, target=0)
        assert all(w.state == BUSY for w in workers)
        assert all(w.draining for w in workers)
        assert fleet.reclaimed_busy == 0

    def test_direct_retire_of_busy_worker_is_refused_and_audited(self):
        fleet = make_fleet()
        worker = fleet.spawn(0.0)
        fleet.assign(worker, 1)
        with pytest.raises(RuntimeError):
            fleet._retire(worker)
        assert fleet.reclaimed_busy == 1  # the audit trail of the refusal

    def test_deficit_undrains_before_spawning(self):
        fleet = make_fleet(cold_start_s=15.0)
        worker = fleet.spawn(0.0)
        fleet.assign(worker, 1)
        worker.draining = True
        spawned = fleet.reconcile(10.0, target=2)
        assert not worker.draining  # cheapest capacity first
        assert len(spawned) == 1 and spawned[0].state == COLD

    def test_dispatch_fault_draws_follow_the_plan_rates(self):
        always = make_fleet(crash_rate=1.0, crash_fraction=0.25)
        worker = always.spawn(0.0)
        fault = always.draw_fault(worker, service_s=8.0)
        assert fault.kind == "crash" and fault.crash_after_s == 2.0
        never = make_fleet(crash_rate=0.0, straggler_rate=0.0)
        assert never.draw_fault(never.spawn(0.0), 8.0) == DispatchFault()
        slow = make_fleet(straggler_rate=1.0, straggler_factor=6.0)
        fault = slow.draw_fault(slow.spawn(0.0), 8.0)
        assert fault.kind == "straggle" and fault.factor == 6.0


class TestAvailabilityLedger:
    def test_deficit_integral_counts_dead_time(self):
        fleet = make_fleet()
        fleet.spawn(0.0)
        worker = fleet.spawn(0.0)
        fleet.accrue(10.0, target=2)  # both alive: no deficit
        fleet.kill(worker, 10.0, "crash")
        fleet.accrue(30.0, target=2)  # one of two intended is dead
        assert fleet.intended_worker_s == pytest.approx(60.0)
        assert fleet.unavailable_worker_s == pytest.approx(20.0)
        assert fleet.availability == pytest.approx(1.0 - 20.0 / 60.0)

    def test_growth_cold_boots_are_not_outages(self):
        fleet = make_fleet(cold_start_s=15.0)
        fleet.spawn(0.0)
        fleet.accrue(10.0, target=1)
        grown = fleet.spawn(10.0)  # voluntary scale-up, still booting
        assert grown.growth_cold
        fleet.accrue(20.0, target=2)
        assert fleet.unavailable_worker_s == 0.0
        assert fleet.availability == 1.0

    def test_ideal_plan_fleet_never_fails_or_boots(self):
        fleet = FleetState(FleetFaultPlan(cold_start_s=0.0))
        fleet.spawn(0.0)
        late = fleet.spawn(40.0)  # a scale-up: instant, not cold
        assert late.state == IDLE and late.ready_s == 40.0
        assert late.preempt_at_s is None
        assert fleet.draw_fault(late, 5.0) == DispatchFault()
        fleet.accrue(100.0, target=2)
        assert fleet.availability == 1.0


# ---------------------------------------------------------------------------
# The census oracle: the live set against brute-force scans of every replica
# ---------------------------------------------------------------------------

DOMAINS = 3


def _serving(worker):
    return (
        worker.state in (COLD, IDLE, BUSY)
        and not worker.draining
        and not worker.preempt_notified
    )


def _check_census(fleet, now):
    """Every census query equals a scan over all replicas ever spawned."""
    everyone = sorted(fleet.workers.values(), key=lambda w: w.wid)
    believed = [
        w for w in everyone
        if _serving(w) or (w.state == DEAD and not w.detected)
    ]
    assert fleet.capacity_count() == len(believed)
    idle = [w for w in everyone if w.state == IDLE and _serving(w)]
    assert fleet.idle_worker() is (idle[0] if idle else None)
    for domain in range(DOMAINS):
        assert fleet.domain_members(domain) == [
            w for w in everyone
            if w.domain == domain and w.state in (COLD, IDLE, BUSY)
        ]
    live = [
        w for w in everyone
        if w.state != RETIRED and not (w.state == DEAD and w.detected)
    ]
    assert list(fleet._live.items()) == [(w.wid, w) for w in live]
    # accrue's alive count, read back off one whole second of deficit at
    # a target no fleet here reaches (integral floats: exact).
    alive = sum(
        1 for w in everyone
        if w.state in (IDLE, BUSY) or (w.state == COLD and w.growth_cold)
    )
    before = fleet.unavailable_worker_s
    fleet.accrue(now, target=100)
    assert fleet.unavailable_worker_s - before == 100 - alive


_OPS = (
    "spawn", "ready", "assign", "release", "drain", "notify", "kill",
    "anticipate", "detect", "reconcile",
)


def _random_transition(fleet, rng, now, aid):
    """Apply one seeded transition; returns what it did, None for a no-op.

    A transition that drops a replica from the live set says so in its
    return value, so the test can prove every drop site ran.
    """
    by_state = {state: [] for state in (COLD, IDLE, BUSY, DEAD, RETIRED)}
    for worker in fleet.workers.values():
        by_state[worker.state].append(worker)
    op = rng.choice(_OPS)
    if op == "spawn":
        fleet.spawn(now)
    elif op == "ready" and by_state[COLD]:
        fleet.mark_ready(rng.choice(by_state[COLD]))
    elif op == "assign" and fleet.idle_worker() is not None:
        fleet.assign(fleet.idle_worker(), aid)
    elif op == "release" and by_state[BUSY]:
        worker = rng.choice(by_state[BUSY])
        fleet.release(worker)
        return "release:retired" if worker.state == RETIRED else op
    elif op == "drain" and by_state[BUSY]:
        rng.choice(by_state[BUSY]).draining = True
    elif op == "notify" and by_state[IDLE] + by_state[BUSY]:
        # The simulator's drain-on-preempt write, made outside FleetState.
        rng.choice(by_state[IDLE] + by_state[BUSY]).preempt_notified = True
    elif op in ("kill", "anticipate"):
        worker = rng.choice(list(fleet.workers.values()))  # dead ones too
        alive = worker.state in (COLD, IDLE, BUSY)
        if op == "anticipate":
            fleet.kill(worker, now, "preempt", anticipated=True)
            return "anticipate:dropped" if alive else op
        fleet.kill(worker, now, rng.choice(("crash", "preempt", "outage")))
    elif op == "detect" and by_state[DEAD]:
        worker = rng.choice(by_state[DEAD])  # detected ones too
        first = not worker.detected
        fleet.mark_detected(worker)
        return "detect:dropped" if first else op
    elif op == "reconcile":
        fleet.reconcile(now, target=rng.randrange(0, 8))
        retired = sum(w.state == RETIRED for w in fleet.workers.values())
        return "reconcile:retired" if retired > len(by_state[RETIRED]) else op
    else:
        return None
    return op


class TestCensusOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_live_set_census_matches_a_full_scan(self, seed):
        rng = random.Random(seed)
        fleet = make_fleet(cold_start_s=15.0, fault_domains=DOMAINS)
        for _ in range(4):
            fleet.spawn(0.0)  # the warm initial fleet
        seen = set()
        for step in range(1, 301):
            now = float(step)  # spawns after t = 0 boot cold
            seen.add(_random_transition(fleet, rng, now, aid=step))
            _check_census(fleet, now)
        assert fleet.reclaimed_busy == 0
        # Every transition that drops a replica from the live set ran.
        assert {
            "release:retired",
            "reconcile:retired",
            "anticipate:dropped",
            "detect:dropped",
        } <= seen
