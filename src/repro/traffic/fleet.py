"""Fleet-level chaos: per-worker fault processes and the recovery policy.

:mod:`repro.robust.faults` injects faults per transcode *call*; real
fleets lose whole *workers*.  This module models the failure shapes a
datacenter-scale transcoding service actually sees (Li et al.,
"Cost-Efficient and Robust On-Demand Video Transcoding Using
Heterogeneous Cloud Services", PAPERS.md):

* **crashes** — a worker dies mid-job; nobody notices until its lease
  expires (heartbeats stop, the lease runs out, only then is the job
  eligible for redelivery);
* **stragglers** — a worker stretches its job by a large factor (noisy
  neighbours, thermal throttling); hedged dispatch races a duplicate
  once the job runs past a p99-based hedge delay;
* **spot preemption** — the provider reclaims a worker after an advance
  notice; a graceful fleet drains (stops assigning, lets the in-flight
  job finish or re-queues it at the kill), a naive one loses the job;
* **correlated outages** — a seeded outage window kills every worker in
  one *fault domain* at once (a rack, an AZ); detection is still
  per-worker lease expiry, because the outage is silent.

Everything is pure in ``(plan, policy, seed)`` on the simulated clock,
in the idiom of :class:`~repro.robust.faults.FaultPlan`: each worker
derives an independent RNG substream from the plan seed and its own id,
so adding a worker never perturbs another worker's draws, and two runs
under the same seed replay the same fleet history byte for byte.  The
event *scheduling* lives in :mod:`repro.traffic.simulator`; this module
owns worker state, fault draws, and the detection arithmetic.

Determinism rules (see DESIGN.md "Fleet chaos & recovery"):

* detection latency is **simulated-clock-only**: a crash at ``t`` is
  detected at ``last_heartbeat(t) + lease_s``, a closed form over the
  worker's spawn time — no polling loop, no wall clock;
* hedge delays derive from the run's own (deterministic) service-time
  samples via nearest-rank p99, so the hedge schedule is a pure
  function of the history that precedes it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional

import numpy as np

__all__ = [
    "CHAOS_PROFILES",
    "DispatchFault",
    "FleetFaultPlan",
    "FleetState",
    "NAIVE_POLICY",
    "OutageWindow",
    "RECOVERY_POLICY",
    "RecoveryPolicy",
    "Worker",
    "generate_outages",
    "resolve_profile",
]

#: Seed-stream tags (the :mod:`repro.traffic.arrivals` idiom): workers
#: and the outage schedule draw from independent substreams of the plan
#: seed.
_WORKER_TAG = 17
_OUTAGE_TAG = 19

# Worker lifecycle states.
COLD = "cold"  # spawned, still cold-starting
IDLE = "idle"  # ready, no job
BUSY = "busy"  # running an attempt
DEAD = "dead"  # crashed / preempted / caught in an outage
RETIRED = "retired"  # reclaimed by scale-down or drained out

_DEATH_CAUSES = ("crash", "preempt", "outage")


@dataclass(frozen=True)
class FleetFaultPlan:
    """What the environment does to workers, how often, from which seed.

    Attributes:
        seed: Root seed; each worker derives its own stream via
            :meth:`rng_for`, the outage schedule via its own tag.
        crash_rate: Per-dispatch probability the worker dies partway
            through the job (silent; lease-based detection applies).
        crash_fraction: Fraction of the job's service time spent before
            the crash (that compute is wasted).
        straggler_rate: Per-dispatch probability the job is stretched.
        straggler_factor: Service-time multiple of a straggling job.
        preempt_mean_s: Mean worker lifetime until spot preemption
            (exponential, drawn per worker at spawn); ``0`` disables.
        preempt_notice_s: Advance notice between the preemption signal
            and the worker actually dying.
        outage_spacing_s: Slot length of correlated-outage windows; one
            outage lands per slot at a seeded offset; ``0`` disables.
        fault_domains: Number of fault domains workers are spread over
            (``worker id % fault_domains``); an outage kills exactly one
            domain.
        cold_start_s: Delay between spawning a replacement worker and it
            accepting work (an environment property, so the naive and
            recovering fleets pay the same price).
    """

    seed: int = 0
    crash_rate: float = 0.0
    crash_fraction: float = 0.5
    straggler_rate: float = 0.0
    straggler_factor: float = 8.0
    preempt_mean_s: float = 0.0
    preempt_notice_s: float = 30.0
    outage_spacing_s: float = 0.0
    fault_domains: int = 4
    cold_start_s: float = 15.0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "straggler_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.crash_rate + self.straggler_rate > 1.0:
            raise ValueError(
                "crash_rate + straggler_rate must be <= 1, got "
                f"{self.crash_rate + self.straggler_rate}"
            )
        if not 0.0 < self.crash_fraction <= 1.0:
            raise ValueError(
                f"crash_fraction must be in (0, 1], got {self.crash_fraction}"
            )
        if not math.isfinite(self.straggler_factor) or self.straggler_factor < 1.0:
            raise ValueError(
                "straggler_factor must be finite and >= 1, got "
                f"{self.straggler_factor}"
            )
        for name in (
            "preempt_mean_s",
            "preempt_notice_s",
            "outage_spacing_s",
            "cold_start_s",
        ):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.fault_domains < 1:
            raise ValueError(
                f"fault_domains must be >= 1, got {self.fault_domains}"
            )

    def rng_for(self, worker_id: int) -> np.random.Generator:
        """A deterministic, worker-independent RNG stream."""
        return np.random.default_rng((self.seed, _WORKER_TAG, worker_id))


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the fleet *handles* what the plan does to it.

    The recovery arm of a chaos experiment runs the full policy; the
    naive arm (:data:`NAIVE_POLICY`) keeps the same environment but
    loses interrupted jobs, never hedges, ignores preemption notices,
    and only replaces dead workers at the autoscaler's next poll.

    Attributes:
        lease_s: Lease duration; a silently-dead worker's job is only
            eligible for redelivery once the lease last renewed by a
            heartbeat has expired.
        heartbeat_s: Heartbeat interval (leases renew on each beat, so
            detection lands at ``last_heartbeat + lease_s``).
        max_deliveries: Total dispatch attempts per job (first delivery
            included); an interruption past the limit dead-letters the
            job with ``redelivery-exhausted``.
        hedge_enabled: Race a duplicate once a job runs past the hedge
            delay; first completion wins, the loser's compute is booked
            as hedge waste.
        hedge_p99_multiplier: Hedge delay as a multiple of the p99 of
            the scenario's observed clean service times.
        hedge_min_samples: Clean service-time samples required before
            hedging arms itself (no p99, no hedge).
        drain_on_preempt: Honor the preemption notice: stop assigning
            work, let the in-flight job finish inside the notice, and
            re-queue it at the kill if it cannot.
        replace_on_detect: Spawn the replacement worker the moment a
            death is detected (lease expiry / preemption notice) rather
            than waiting for the autoscaler's next poll.
    """

    lease_s: float = 30.0
    heartbeat_s: float = 5.0
    max_deliveries: int = 3
    hedge_enabled: bool = True
    hedge_p99_multiplier: float = 1.5
    hedge_min_samples: int = 12
    drain_on_preempt: bool = True
    replace_on_detect: bool = True

    def __post_init__(self) -> None:
        for name in ("lease_s", "heartbeat_s"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.lease_s < self.heartbeat_s:
            raise ValueError(
                f"lease_s ({self.lease_s}) must cover at least one "
                f"heartbeat interval ({self.heartbeat_s})"
            )
        if self.max_deliveries < 1:
            raise ValueError(
                f"max_deliveries must be >= 1, got {self.max_deliveries}"
            )
        if (
            not math.isfinite(self.hedge_p99_multiplier)
            or self.hedge_p99_multiplier < 1.0
        ):
            raise ValueError(
                "hedge_p99_multiplier must be >= 1, got "
                f"{self.hedge_p99_multiplier}"
            )
        if self.hedge_min_samples < 1:
            raise ValueError(
                f"hedge_min_samples must be >= 1, got {self.hedge_min_samples}"
            )

    def detection_s(self, ready_s: float, died_s: float) -> float:
        """When a silent death at ``died_s`` is detected.

        Heartbeats land at ``ready_s + k * heartbeat_s``; each renews
        the lease for ``lease_s``.  Detection is the expiry of the lease
        renewed by the last heartbeat at or before the death — a closed
        form over simulated time, which is what keeps detection latency
        byte-stable (DESIGN.md).
        """
        if died_s < ready_s:
            raise ValueError(
                f"death at {died_s} precedes worker readiness at {ready_s}"
            )
        beats = math.floor((died_s - ready_s) / self.heartbeat_s)
        return ready_s + beats * self.heartbeat_s + self.lease_s


#: The full recovery stack (the chaos-with-recovery arm).
RECOVERY_POLICY = RecoveryPolicy()

#: Same environment, no handling: interrupted jobs are lost (a single
#: delivery), stragglers run unhedged, preemption notices are ignored,
#: and dead replicas wait for the next autoscaler poll.
NAIVE_POLICY = RecoveryPolicy(
    max_deliveries=1,
    hedge_enabled=False,
    drain_on_preempt=False,
    replace_on_detect=False,
)

#: Named chaos profiles for ``repro traffic --chaos <profile>``.  The
#: plan seed is replaced with the run seed by the CLI, so profiles are
#: shapes, not schedules.
CHAOS_PROFILES: Dict[str, FleetFaultPlan] = {
    "crashes": FleetFaultPlan(crash_rate=0.12, straggler_rate=0.08),
    "spot": FleetFaultPlan(preempt_mean_s=240.0, preempt_notice_s=20.0),
    "outage": FleetFaultPlan(outage_spacing_s=150.0, fault_domains=2),
    "full": FleetFaultPlan(
        crash_rate=0.10,
        straggler_rate=0.08,
        preempt_mean_s=150.0,
        preempt_notice_s=20.0,
        outage_spacing_s=200.0,
        fault_domains=2,
    ),
}


@dataclass(frozen=True)
class OutageWindow:
    """One correlated outage: at ``at_s`` every worker in ``domain`` dies."""

    at_s: float
    domain: int


def generate_outages(
    plan: FleetFaultPlan, duration_s: float
) -> List[OutageWindow]:
    """The seeded outage schedule for one run (pure in ``(plan, duration)``).

    One outage lands in each ``outage_spacing_s``-long slot of the
    arrival window at a seeded offset, hitting a seeded fault domain —
    the :func:`repro.traffic.arrivals.generate_spikes` idiom applied to
    failure instead of load.
    """
    if plan.outage_spacing_s <= 0 or duration_s <= 0:
        return []
    rng = np.random.default_rng((plan.seed, _OUTAGE_TAG))
    outages: List[OutageWindow] = []
    slots = int(duration_s / plan.outage_spacing_s)
    for slot in range(slots):
        offset = float(rng.random()) * plan.outage_spacing_s
        at = slot * plan.outage_spacing_s + offset
        domain = int(rng.integers(0, plan.fault_domains))
        if at >= duration_s:
            continue
        outages.append(OutageWindow(at_s=at, domain=domain))
    return outages


@dataclass(frozen=True)
class DispatchFault:
    """What the worker's fault stream decided for one dispatched job.

    ``kind`` is ``"none"``, ``"crash"`` (dies ``crash_after_s`` service
    seconds in), or ``"straggle"`` (service stretched by ``factor``).
    """

    kind: str = "none"
    crash_after_s: float = 0.0
    factor: float = 1.0


@dataclass
class Worker:
    """One simulated replica.

    Attributes:
        wid: Monotone worker id (never reused).
        domain: Fault domain (``wid % plan.fault_domains``).
        spawned_s: When the replica was started.
        ready_s: When it accepts work (``spawned_s + cold_start_s``).
        rng: The replica's own fault stream
            (:meth:`FleetFaultPlan.rng_for`).
        state: One of ``cold``/``idle``/``busy``/``dead``/``retired``.
        draining: Scale-down drain — finish the current job, then
            retire; never assigned new work.
        preempt_at_s: Seeded preemption-notice time, or ``None``.
        preempt_notified: The notice has fired (a draining fleet stops
            assigning work to this replica).
        detected: For a dead replica: the fleet has *noticed* (lease
            expiry, or instantly for an anticipated kill).  Until then
            the autoscaler still believes the replica is serving.
        growth_cold: Cold-starting for voluntary growth (a scale-up),
            not as a replacement for a death; such boot time is not an
            outage and does not count against availability.
        attempt_id: The attempt currently running here, if any.
    """

    wid: int
    domain: int
    spawned_s: float
    ready_s: float
    rng: np.random.Generator = field(repr=False)
    state: str = COLD
    draining: bool = False
    preempt_at_s: Optional[float] = None
    preempt_notified: bool = False
    detected: bool = False
    growth_cold: bool = False
    attempt_id: Optional[int] = None


class FleetState:
    """The worker fleet: spawn, assign, drain, kill, and account.

    Owns worker state and the availability/time-to-recover ledgers; the
    simulator owns the event queue and calls in.  Every run goes through
    here: an ideal fleet is just a plan whose rates are all zero and
    whose ``cold_start_s`` is 0 — spawns are instant and every
    :meth:`draw_fault` comes back clean.

    A job is dispatched to a specific idle replica
    (:meth:`idle_worker`), and a scale-down **drains by identity**:
    :meth:`reconcile` retires idle replicas and marks specific busy ones
    draining, so a still-serving replica that finishes takes the next
    job even while the drainers are running.

    Args:
        plan: The environment's fault processes.
        policy: The recovery policy (defaults to
            :data:`RECOVERY_POLICY`).
    """

    def __init__(
        self,
        plan: FleetFaultPlan,
        policy: Optional[RecoveryPolicy] = None,
    ) -> None:
        self.plan = plan
        self.policy = policy or RECOVERY_POLICY
        self.workers: Dict[int, Worker] = {}
        # The census scans only replicas that can still matter: neither
        # RETIRED nor known-dead.  Insertion order is wid order.
        self._live: Dict[int, Worker] = {}
        self._next_id = 0
        # Deaths awaiting a replacement: spawn times pop the oldest to
        # form a time-to-recover sample (death -> replacement ready).
        self._pending_deaths: Deque[float] = deque()
        self.ttr_samples: List[float] = []
        # Counters surfaced through FleetStats; ``len(workers)`` is the
        # spawn count and the three death causes sum to the losses.
        self.crashes = 0
        self.preemptions = 0
        self.outage_kills = 0
        self.reclaimed_busy = 0  # audit: must stay 0 (scale-down drains)
        self.wasted_compute_s = 0.0
        # Worker-second ledgers, integrated together by :meth:`accrue`.
        # Availability: worker-seconds the fleet *intended* to have
        # (integral of the autoscaler target) vs worker-seconds lost to
        # deaths (death -> replacement ready).  Utilization: busy
        # replicas vs capacity.
        self._accrued_to = 0.0
        self.intended_worker_s = 0.0
        self.unavailable_worker_s = 0.0
        self.busy_worker_s = 0.0
        self.capacity_worker_s = 0.0

    # -- census ---------------------------------------------------------------

    def _serving(self, worker: Worker) -> bool:
        """Counts toward capacity: alive and not on its way out."""
        return (
            worker.state in (COLD, IDLE, BUSY)
            and not worker.draining
            and not worker.preempt_notified
        )

    def capacity_count(self) -> int:
        """What the autoscaler *believes* it has.

        A silently-dead replica still heartbeat-renews in the control
        plane's imagination until its lease expires, so reconciliation
        must not replace it before detection — that head start is
        exactly what the recovering policy's detect-time replacement
        buys back.
        """
        # Every DEAD replica still in the live set is an undetected one.
        return sum(
            1
            for w in self._live.values()
            if w.state == DEAD or self._serving(w)
        )

    def mark_detected(self, worker: Worker) -> None:
        if worker.state != DEAD:
            raise RuntimeError(
                f"cannot detect the death of worker {worker.wid} in state "
                f"{worker.state}"
            )
        worker.detected = True
        self._live.pop(worker.wid, None)

    def busy_count(self) -> int:
        """Replicas running an attempt: every unresolved attempt has one."""
        return sum(1 for w in self._live.values() if w.state == BUSY)

    def idle_worker(self) -> Optional[Worker]:
        """Lowest-id replica that can accept a job right now."""
        for worker in self._live.values():
            if worker.state == IDLE and self._serving(worker):
                return worker
        return None

    # -- lifecycle ------------------------------------------------------------

    def spawn(self, now: float) -> Worker:
        """Start one replica.

        The initial fleet (spawned at ``t == 0``) comes up warm — a
        running service's steady-state replicas are not mid-boot when
        the experiment window opens.  Everything spawned later (scale-up
        or replacement) pays the plan's cold start.
        """
        wid = self._next_id
        self._next_id += 1
        cold = self.plan.cold_start_s if now > 0 else 0.0
        worker = Worker(
            wid=wid,
            domain=wid % self.plan.fault_domains,
            spawned_s=now,
            ready_s=now + cold,
            rng=self.plan.rng_for(wid),
            state=COLD if cold > 0 else IDLE,
        )
        if self.plan.preempt_mean_s > 0:
            worker.preempt_at_s = worker.ready_s + float(
                worker.rng.exponential(self.plan.preempt_mean_s)
            )
        if self._pending_deaths:
            # Replacement for a recorded death: time-to-recover runs
            # from the death to this replica coming online.
            ttr = worker.ready_s - self._pending_deaths.popleft()
            self.ttr_samples.append(ttr)
        else:
            worker.growth_cold = worker.state == COLD
        self.workers[wid] = worker
        self._live[wid] = worker
        return worker

    def mark_ready(self, worker: Worker) -> None:
        if worker.state == COLD:
            worker.state = IDLE
            worker.growth_cold = False

    def reconcile(self, now: float, target: int) -> List[Worker]:
        """Move the fleet toward the autoscaler's target size.

        Deficit: un-drain draining replicas first (cheapest capacity),
        then spawn.  Surplus: retire idle replicas, then mark busy ones
        draining — a replica with an in-flight job is **never**
        reclaimed (the scale-down invariant; ``reclaimed_busy`` audits
        it).  Returns newly spawned workers so the simulator can
        schedule their cold-start completions.
        """
        spawned: List[Worker] = []
        have = self.capacity_count()
        if have < target:
            deficit = target - have
            for worker in self._live.values():
                if deficit == 0:
                    break
                if worker.state in (IDLE, BUSY) and worker.draining:
                    worker.draining = False
                    deficit -= 1
            for _ in range(deficit):
                spawned.append(self.spawn(now))
        elif have > target:
            surplus = have - target
            # Idle replicas retire immediately (nothing in flight) ...
            idles = [
                w
                for w in self._live.values()
                if w.state == IDLE and self._serving(w)
            ]
            for worker in reversed(idles):
                if surplus == 0:
                    break
                self._retire(worker)
                surplus -= 1
            # ... busy ones only drain: finish the job, then retire.
            busys = [
                w
                for w in self._live.values()
                if w.state == BUSY and self._serving(w)
            ]
            for worker in reversed(busys):
                if surplus == 0:
                    break
                worker.draining = True
                surplus -= 1
        return spawned

    def _retire(self, worker: Worker) -> None:
        if worker.attempt_id is not None:
            # The invariant every scale-down must respect: never reclaim
            # a replica with an in-flight job.  Recorded, then refused.
            self.reclaimed_busy += 1
            raise RuntimeError(
                f"worker {worker.wid} reclaimed with attempt "
                f"{worker.attempt_id} in flight"
            )
        worker.state = RETIRED
        del self._live[worker.wid]

    def assign(self, worker: Worker, attempt_id: int) -> None:
        if worker.state != IDLE:
            raise RuntimeError(
                f"cannot assign to worker {worker.wid} in state {worker.state}"
            )
        worker.state = BUSY
        worker.attempt_id = attempt_id

    def release(self, worker: Worker) -> None:
        """The worker's attempt resolved; idle it or retire a drainer."""
        worker.attempt_id = None
        if worker.state != BUSY:
            return  # already dead or retired; nothing to release
        if worker.draining or worker.preempt_notified:
            worker.state = RETIRED
            del self._live[worker.wid]
        else:
            worker.state = IDLE

    def kill(
        self,
        worker: Worker,
        now: float,
        cause: str,
        anticipated: bool = False,
    ) -> Optional[int]:
        """The environment killed this replica; returns the interrupted
        attempt id, if a job was in flight.

        An ``anticipated`` kill (a drained preemption) had its
        replacement spawned at the notice, so its time-to-recover is the
        part of the cold start the notice window could not hide; silent
        deaths queue for pairing with the next replacement spawn.
        """
        if cause not in _DEATH_CAUSES:
            raise ValueError(f"unknown death cause {cause!r}")
        if worker.state in (DEAD, RETIRED):
            return None
        interrupted = worker.attempt_id
        worker.attempt_id = None
        worker.state = DEAD
        if anticipated:
            # The drain knew this was coming: the replacement went up at
            # the notice, so recovery time is only the part of its cold
            # start the notice window could not hide.
            worker.detected = True
            del self._live[worker.wid]
            self.ttr_samples.append(
                max(self.plan.cold_start_s - self.plan.preempt_notice_s, 0.0)
            )
        else:
            self._pending_deaths.append(now)
        if cause == "crash":
            self.crashes += 1
        elif cause == "preempt":
            self.preemptions += 1
        else:
            self.outage_kills += 1
        return interrupted

    def domain_members(self, domain: int) -> List[Worker]:
        """Alive workers in one fault domain, id order."""
        return [
            w
            for w in self._live.values()
            if w.domain == domain and w.state in (COLD, IDLE, BUSY)
        ]

    # -- fault draws ----------------------------------------------------------

    def draw_fault(self, worker: Worker, service_s: float) -> DispatchFault:
        """One uniform draw from the worker's stream decides the job's fate."""
        draw = float(worker.rng.random())
        if draw < self.plan.crash_rate:
            return DispatchFault(
                kind="crash",
                crash_after_s=service_s * self.plan.crash_fraction,
            )
        if draw < self.plan.crash_rate + self.plan.straggler_rate:
            return DispatchFault(
                kind="straggle", factor=self.plan.straggler_factor
            )
        return DispatchFault()

    # -- accounting -----------------------------------------------------------

    def book_waste(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"waste must be >= 0, got {seconds}")
        self.wasted_compute_s += seconds

    def accrue(self, until: float, target: int) -> None:
        """Integrate every worker-second ledger to ``until`` in one scan.

        Availability: the deficit at any instant is ``target`` minus the
        replicas that can actually serve (ready, plus voluntary-growth
        replicas whose cold start is in progress — booting for a
        scale-up is not an outage).  Dead replicas — detected or not —
        and replacements still cold-starting *are* deficit: that is the
        user-visible capacity failure recovery exists to shrink.

        Utilization: busy replicas over capacity, where capacity is the
        target but never less than what is busy (a replica finishing its
        job after a scale-down still exists until it drains).
        """
        dt = until - self._accrued_to
        if dt <= 0:
            return
        self._accrued_to = until
        alive = busy = 0
        for w in self._live.values():
            if w.state == BUSY:
                busy += 1
                alive += 1
            elif w.state == IDLE or (w.state == COLD and w.growth_cold):
                alive += 1
        self.busy_worker_s += busy * dt
        self.capacity_worker_s += max(target, busy) * dt
        if target > 0:
            self.intended_worker_s += target * dt
            self.unavailable_worker_s += max(target - alive, 0) * dt

    @property
    def availability(self) -> float:
        """Fraction of intended worker-seconds not lost to failures."""
        if self.intended_worker_s <= 0:
            return 1.0
        return max(
            1.0 - self.unavailable_worker_s / self.intended_worker_s, 0.0
        )


def resolve_profile(name: str, seed: int) -> FleetFaultPlan:
    """The named chaos profile, re-seeded for this run."""
    try:
        profile = CHAOS_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown chaos profile {name!r}; known: {sorted(CHAOS_PROFILES)}"
        ) from None
    return replace(profile, seed=seed)
