"""The traffic simulator: an event loop that makes the farm earn its SLOs.

This is the tentpole of the robustness layer.  :class:`TrafficSimulator`
replays a seeded request schedule (:mod:`repro.traffic.arrivals`) against
a :class:`~repro.pipeline.farm.TranscodeFarm` through a bounded admission
queue (:mod:`repro.traffic.admission`) while a queue-depth autoscaler
(:mod:`repro.traffic.autoscaler`) grows and shrinks the simulated worker
fleet.  Every request lifecycle —

    arrival -> admit / shed / backpressure -> queue wait
            -> transcode through the robustness stack
            -> complete / dead-letter

— lands in an :class:`~repro.traffic.slo.SLOReport`.

Every job runs on a :class:`~repro.traffic.fleet.FleetState` replica
(:mod:`repro.traffic.fleet`).  With a
:class:`~repro.traffic.fleet.FleetFaultPlan` configured, the replicas
themselves become unreliable: workers crash mid-job, straggle, get
spot-preempted with notice, or die together in correlated-outage
windows.  The simulator then runs the recovery machinery — lease-based
failure detection (a crashed worker's job is only redelivered once its
lease expires), bounded redelivery feeding the dead-letter queue, hedged
dispatch for stragglers past a p99-based hedge delay (first completion
wins, the loser's compute is booked as waste), graceful drain on
preemption notice, and replacement of dead replicas with cold-start
delay — and accounts it all in the report's
:class:`~repro.traffic.slo.FleetStats`.

Determinism is the design constraint everything else bends around.  The
loop runs on two clocks: the **event clock** only moves forward
(:meth:`SimClock.advance_to`), popping events from an :class:`EventQueue`
in ``(when, sequence)`` order, while the **farm clock** is seeked to each
job's dispatch time exactly as the farm does for its own workers.  An
event is ``(handler, payload)``: the loop pops it, accrues the fleet's
ledgers up to its time, and calls the handler; the sequence number
breaks ties, so payloads are never compared.  All
randomness lives in seeded substreams — the arrival schedule's, and
under chaos each worker's own fault stream — while admission, scaling,
detection, hedging, and dispatch are pure functions of observed state.
Two runs with the same seed and config therefore produce byte-identical
reports — which is what turns "the farm survived the spike" from an
anecdote into a regression test.

Time scaling: the suite's clips are tiny stand-ins, so their modeled
transcode times are milliseconds — no arrival rate a laptop can simulate
would ever queue.  :attr:`TrafficConfig.time_scale` (via
``FarmConfig.time_scale``) multiplies modeled service times back up to
the scale of the resolutions the clips stand in for, so Live's real-time
budget is actually at risk and admission control has something to do.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.scenarios import Scenario
from repro.pipeline.farm import FarmConfig, JobTiming, TranscodeFarm
from repro.pipeline.scheduler import DeadlineScheduler, ScheduleDecision
from repro.predict.features import JobFeatures, extract_features
from repro.robust.clock import EventQueue, SimClock
from repro.traffic.admission import (
    AdmissionConfig,
    AdmissionController,
    ServiceTimeEstimator,
)
from repro.traffic.arrivals import ArrivalConfig, Request, generate_arrivals
from repro.traffic.autoscaler import AutoscalerConfig, QueueDepthAutoscaler
from repro.traffic.fleet import (
    BUSY,
    COLD,
    DEAD,
    NAIVE_POLICY,
    RETIRED,
    FleetFaultPlan,
    FleetState,
    OutageWindow,
    RecoveryPolicy,
    Worker,
    generate_outages,
)
from repro.traffic.slo import (
    FleetStats,
    LatencySummary,
    PredictionStats,
    ScenarioStats,
    SLOReport,
    nearest_rank,
)
from repro.video.synthesis import CONTENT_CLASSES, synthesize
from repro.video.video import Video

__all__ = ["TrafficConfig", "TrafficSimulator", "run_traffic"]

#: Every catalog title's stand-in clip, ``(width, height, frames, fps)``:
#: tiny, so the catalog synthesizes in milliseconds.  Frames and fps set
#: the clip duration and therefore Live's real-time deadline budget.
_STANDIN_CLIP = (48, 32, 6, 12.0)

#: Catalog content rotation (``CONTENT_CLASSES`` is insertion-ordered).
_CONTENT_CYCLE = tuple(CONTENT_CLASSES)

#: EWMA weight for the service-time estimator feeding admission control.
_EWMA_ALPHA = 0.3

#: What ``TrafficConfig.fleet=None`` means: replicas that never fail and
#: boot instantly.  Run under :data:`NAIVE_POLICY`, so hedging stays off.
_IDEAL_PLAN = FleetFaultPlan(cold_start_s=0.0)


@dataclass(frozen=True)
class TrafficConfig:
    """Everything one traffic experiment is parameterized by.

    The catalog's clip geometry and content rotation are module
    constants, and the predictor arm schedules over the scheduler's
    default candidates with its default Upload throughput target.

    Attributes:
        arrivals: The offered load (rates, shares, diurnal, spikes).
        admission: Per-class admission policies.
        autoscaler: The worker-fleet scaling policy.
        catalog_size: Number of synthesized titles requests draw from.
        time_scale: Service-time multiplier (see module docstring);
            forwarded to :class:`~repro.pipeline.farm.FarmConfig`.
        use_predictor: Replace the EWMA service-time estimator with the
            transcode-time predictor and schedule each job at the
            highest-quality operating point whose predicted time fits
            its remaining deadline budget (the predictor arm).  Off by
            default: the EWMA arm is the committed baseline.
        fleet: The fleet fault plan, or ``None`` for ideal workers: the
            same :class:`~repro.traffic.fleet.FleetState` replicas under
            an all-zero plan with instant spawns and
            :data:`~repro.traffic.fleet.NAIVE_POLICY`, and no ``fleet``
            block in the report.
        recovery: How failures are handled when ``fleet`` is set
            (:data:`~repro.traffic.fleet.NAIVE_POLICY` turns it all
            off for the naive comparison arm).
        chaos_profile: Label recorded in the report (the CLI sets it to
            the ``--chaos`` profile name).
    """

    arrivals: ArrivalConfig = field(default_factory=ArrivalConfig)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    autoscaler: AutoscalerConfig = field(default_factory=AutoscalerConfig)
    catalog_size: int = 12
    time_scale: float = 300.0
    use_predictor: bool = False
    fleet: Optional[FleetFaultPlan] = None
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    chaos_profile: str = ""

    def __post_init__(self) -> None:
        if self.catalog_size < 1:
            raise ValueError(
                f"catalog needs at least one title, got {self.catalog_size}"
            )
        if not math.isfinite(self.time_scale) or self.time_scale <= 0:
            raise ValueError(
                f"time scale must be positive and finite, got {self.time_scale}"
            )


@dataclass
class _Job:
    """One admitted request's journey, across however many deliveries.

    The terminal-state partition hangs off ``done``: every admitted job
    flips it exactly once (completed, dead-lettered, or timed out at a
    stale re-dispatch), no matter how many attempts chaos costs it.
    """

    request: Request
    enqueued_s: float
    budget_s: float
    deliveries: int = 0
    done: bool = False
    queued: bool = True
    attempts: List["_Attempt"] = field(default_factory=list)

    def live_attempts(self) -> List["_Attempt"]:
        return [a for a in self.attempts if not a.resolved]


@dataclass
class _Attempt:
    """One dispatch of a job onto one worker.

    When it started, at which rung and against which prediction are the
    farm's :class:`JobTiming`; a hedge of it replays those.
    """

    aid: int
    job: _Job
    wid: int  # the replica it runs on (``FleetState.workers`` key)
    timing: JobTiming
    delivery: int
    is_hedge: bool = False
    stretched: bool = False
    drain_protected: bool = False
    resolved: bool = False
    budget_override: Optional[float] = None


class TrafficSimulator:
    """Drive a farm with generated traffic and account every request.

    There is one fault model here: whole workers fail, as configured by
    :attr:`TrafficConfig.fleet`.  The farm underneath runs fault-free,
    with its retry/breaker/degradation stack still in the path of every
    job; faults injected per transcode *call* are a
    :class:`~repro.pipeline.farm.TranscodeFarm` experiment
    (``repro chaos``), not a traffic one.

    Args:
        config: The experiment parameters.
        seed: Root seed; arrivals, spikes, ranks, catalog content, and
            (under chaos) every worker's fault stream are all derived
            from substreams of it.
    """

    def __init__(
        self,
        config: Optional[TrafficConfig] = None,
        seed: int = 0,
    ) -> None:
        self.config = config or TrafficConfig()
        self.seed = int(seed)
        self.farm = TranscodeFarm(
            config=FarmConfig(time_scale=self.config.time_scale),
            memoize=True,
        )
        self.catalog: List[Video] = [
            self._make_title(rank) for rank in range(1, self.config.catalog_size + 1)
        ]
        self.admission = AdmissionController(self.config.admission)
        self.scaler = QueueDepthAutoscaler(self.config.autoscaler)
        plan, policy = self.config.fleet, self.config.recovery
        if plan is None:
            plan, policy = _IDEAL_PLAN, NAIVE_POLICY
        self.fleet = FleetState(plan, policy)
        self.policy = self.fleet.policy
        self.clock = SimClock()  # The global event clock; only moves forward.
        self.events = EventQueue()
        self.queue: Deque[_Job] = deque()
        # One ledger and one set of sample lists per traffic class, in
        # report order.
        self.stats: Dict[str, ScenarioStats] = {}
        self._wait_samples: Dict[str, List[float]] = {}
        self._e2e_samples: Dict[str, List[float]] = {}
        self._pred_samples: Dict[str, List[Tuple[float, float]]] = {}
        # Clean first-delivery service times per scenario, kept sorted
        # ascending: the sample pool the p99 hedge delay derives from.
        self._service_samples: Dict[str, List[float]] = {}
        for scenario in (Scenario.UPLOAD, Scenario.LIVE, Scenario.VOD):
            name = scenario.value
            self.stats[name] = ScenarioStats(scenario=name)
            self._wait_samples[name] = []
            self._e2e_samples[name] = []
            self._pred_samples[name] = []
            self._service_samples[name] = []
        self._attempts: Dict[int, _Attempt] = {}
        self._next_aid = 0
        # The fleet facts no other ledger holds; everything else in
        # FleetStats is read off the fleet, the scenario ledgers and the
        # farm's dead letters.
        self._interruptions = 0
        self._hedges_launched = 0
        self._hedge_wins = 0
        # Service-time estimation for admission's wait predictions: the
        # EWMA arm learns only from completions; the predictor arm seeds
        # cold starts from the committed transcode-time models.
        self.scheduler: Optional[DeadlineScheduler] = None
        if self.config.use_predictor:
            self.scheduler = DeadlineScheduler(
                cost_model=self.farm.costs.model,
                time_scale=self.config.time_scale,
            )
        self.estimator = ServiceTimeEstimator(
            alpha=_EWMA_ALPHA,
            seed=self._predicted_service_s if self.scheduler is not None else None,
        )
        self._features: Dict[int, JobFeatures] = {}
        # Observed service times per (scenario, title, spec): the farm
        # is deterministic, so these supersede model predictions for
        # repeat jobs (known-trumps-estimated, same as the estimator).
        self._measured: Dict[Tuple[Scenario, int, str], float] = {}

    # -- setup ----------------------------------------------------------------

    def _make_title(self, rank: int) -> Video:
        content = _CONTENT_CYCLE[(rank - 1) % len(_CONTENT_CYCLE)]
        return synthesize(
            content,
            *_STANDIN_CLIP,
            seed=self.seed * 1009 + rank,
            name=f"title-{rank:04d}-{content}",
        )

    def _video_for(self, request: Request) -> Video:
        return self.catalog[(request.rank - 1) % len(self.catalog)]

    # -- service-time estimation ----------------------------------------------

    def _features_for(self, request: Request) -> JobFeatures:
        """Probe features of the request's title, extracted once."""
        index = (request.rank - 1) % len(self.catalog)
        features = self._features.get(index)
        if features is None:
            features = extract_features(self.catalog[index])
            self._features[index] = features
        return features

    def _measured_for(self, request: Request) -> Dict[str, float]:
        """Observed service times of this title at each candidate spec."""
        index = (request.rank - 1) % len(self.catalog)
        measured: Dict[str, float] = {}
        for spec in self.scheduler.candidates:
            service_s = self._measured.get((request.scenario, index, spec))
            if service_s is not None:
                measured[spec] = service_s
        return measured

    def _full_budget_decision(self, request: Request) -> ScheduleDecision:
        """The scheduler's choice for this title at its full budget."""
        video = self._video_for(request)
        budget = self.farm.config.deadlines.budget_s(video, request.scenario)
        return self.scheduler.choose(
            self._features_for(request),
            self.farm.job_rate(video, request.scenario),
            self.scheduler.budget_for(video, request.scenario, budget),
            measured_s=self._measured_for(request),
        )

    def _predicted_service_s(
        self, scenario: Scenario, rank: int
    ) -> Optional[float]:
        """Estimator seed hook: the predicted time of the job the
        scheduler would start for this (scenario, rank) at full budget."""
        request = Request(rid=0, arrival_s=0.0, scenario=scenario, rank=rank)
        return self._full_budget_decision(request).predicted_s

    def _expected_wait_s(self, request: Request) -> float:
        """Predicted queue wait if this request were admitted now."""
        depth = len(self.queue)
        service = self.estimator.expected(request.scenario, request.rank)
        workers = max(self.scaler.active, 1)
        wait = depth / workers * service
        if self.scaler.active == 0:
            # A sleeping fleet can't start anything until the next poll.
            wait += self.config.autoscaler.poll_interval_s
        return wait

    def _hedge_delay_s(self, scenario: Scenario) -> Optional[float]:
        """How long a job may run before a duplicate is raced, or None.

        Pure in the run's own history: the nearest-rank p99 of the
        scenario's *clean* first-delivery service times, scaled by the
        policy multiplier.  Until enough samples exist the hedge stays
        disarmed — better no hedge than one calibrated on noise.
        """
        if not self.policy.hedge_enabled:
            return None
        samples = self._service_samples[scenario.value]
        if len(samples) < self.policy.hedge_min_samples:
            return None
        return nearest_rank(samples, 99.0) * self.policy.hedge_p99_multiplier

    # -- the event loop -------------------------------------------------------

    def run(self) -> SLOReport:
        """Run the experiment to completion and return its report."""
        requests = generate_arrivals(
            self.config.arrivals, self.config.catalog_size, self.seed
        )
        self.events.schedule(0.0, (self._handle_tick, None))
        for request in requests:
            self.stats[request.scenario.value].arrived += 1
            self.events.schedule(
                request.arrival_s, (self._handle_arrival, (request, 1))
            )
        outages = generate_outages(
            self.fleet.plan, self.config.arrivals.duration_s
        )
        for window in outages:
            self.events.schedule(window.at_s, (self._handle_outage, window))
        while self.events:
            when, (handle, payload) = self.events.pop()
            self.fleet.accrue(when, self.scaler.active)
            handle(self.clock.advance_to(when), payload)
        # Every scheduled outage pops, so the schedule is the count.
        return self._finalize(len(outages))

    def _handle_arrival(
        self, now: float, payload: Tuple[Request, int]
    ) -> None:
        request, attempt = payload
        stats = self.stats[request.scenario.value]
        video = self._video_for(request)
        budget = self.farm.config.deadlines.budget_s(video, request.scenario)
        slack = budget - self.estimator.expected(request.scenario, request.rank)
        decision = self.admission.decide(
            request.scenario,
            depth=len(self.queue),
            expected_wait_s=self._expected_wait_s(request),
            deadline_slack_s=slack,
            attempt=attempt,
        )
        if decision.admitted:
            stats.admitted += 1
            self.queue.append(
                _Job(request=request, enqueued_s=now, budget_s=budget)
            )
            self._dispatch(now)
        elif decision.verdict == "retry":
            stats.backpressure_retries += 1
            self.events.schedule(
                now + decision.retry_delay_s,
                (self._handle_arrival, (request, attempt + 1)),
            )
        else:
            stats.shed += 1
            if decision.reason == "deadline":
                stats.shed_deadline += 1
            else:
                stats.shed_queue_full += 1

    # -- dispatch -------------------------------------------------------------

    def _dispatch(self, now: float) -> None:
        """Start queued jobs while idle replicas exist."""
        while self.queue:
            worker = self.fleet.idle_worker()
            if worker is None:
                return
            job = self.queue.popleft()
            job.queued = False
            self._start_delivery(now, job, worker)

    def _start_delivery(self, now: float, job: _Job, worker: Worker) -> None:
        """Dispatch the job's next delivery onto ``worker``, or time the
        job out as stale (leaving the replica idle)."""
        request = job.request
        realtime = request.scenario.realtime
        elapsed = now - request.arrival_s
        self._wait_samples[request.scenario.value].append(now - job.enqueued_s)
        budget = job.budget_s
        spec: Optional[str] = None
        budget_override: Optional[float] = None
        if self.scheduler is None:
            expected = self.estimator.expected(request.scenario, request.rank)
        else:
            if realtime:
                # A realtime deadline runs from arrival: backpressure
                # delay, queue wait and any wasted attempt are sunk, so
                # plan against what is left (the fastest rung when
                # nothing fits), and hand the farm that remaining budget
                # so its retry policy respects it too.
                video = self._video_for(request)
                decision = self.scheduler.choose_remaining(
                    self._features_for(request),
                    self.farm.job_rate(video, request.scenario),
                    budget,
                    elapsed,
                    measured_s=self._measured_for(request),
                )
                budget_override = max(budget - elapsed, 0.0)
            else:
                decision = self._full_budget_decision(request)
            spec = decision.spec
            expected = decision.predicted_s
        if realtime and elapsed + expected > budget:
            # Too stale to bother: starting it now would only waste a
            # worker on a stream that has already moved on.
            self.stats[request.scenario.value].timed_out += 1
            job.done = True
            return
        self._launch(
            now,
            job,
            worker,
            spec=spec,
            budget_override=budget_override,
            expected=expected,
            is_hedge=False,
        )

    def _launch(
        self,
        now: float,
        job: _Job,
        worker: Worker,
        spec: Optional[str],
        budget_override: Optional[float],
        expected: float,
        is_hedge: bool,
    ) -> None:
        """Run one attempt on the idle ``worker`` and schedule its outcome."""
        request = job.request
        video = self._video_for(request)
        timing = self.farm.execute_job(
            video,
            request.scenario,
            at_s=now,
            job=f"req-{request.rid:06d}",
            spec=spec,
            budget_s=budget_override,
            predicted_s=expected,
        )
        aid = self._next_aid
        self._next_aid += 1
        attempt = _Attempt(
            aid=aid,
            job=job,
            wid=worker.wid,
            timing=timing,
            delivery=job.deliveries + 1,
            is_hedge=is_hedge,
            budget_override=budget_override,
        )
        self._attempts[aid] = attempt
        job.attempts.append(attempt)
        job.deliveries += 1
        self.fleet.assign(worker, aid)
        fault = self.fleet.draw_fault(worker, timing.service_s)
        if fault.kind == "crash" and timing.completed:
            # The worker dies partway through; nothing completes, nobody
            # notices until the lease expires.
            self.events.schedule(
                now + fault.crash_after_s,
                (self._handle_death, (worker.wid, aid)),
            )
        elif fault.kind == "straggle":
            attempt.stretched = True
            self.events.schedule(
                now + timing.service_s * fault.factor,
                (self._handle_complete, aid),
            )
        else:
            self.events.schedule(
                timing.finished_s, (self._handle_complete, aid)
            )
        if not is_hedge:
            delay = self._hedge_delay_s(request.scenario)
            if delay is not None:
                self.events.schedule(now + delay, (self._handle_hedge, aid))

    # -- attempt resolution ---------------------------------------------------

    def _release_worker(self, attempt: _Attempt) -> None:
        worker = self.fleet.workers[attempt.wid]
        if worker.state == BUSY and worker.attempt_id == attempt.aid:
            self.fleet.release(worker)

    def _cancel_attempt(self, attempt: _Attempt, now: float) -> None:
        """A racing duplicate lost: free its worker, book the waste."""
        attempt.resolved = True
        self.stats[attempt.job.request.scenario.value].hedge_cancelled += 1
        self.fleet.book_waste(now - attempt.timing.started_s)
        self._release_worker(attempt)

    def _interrupt(
        self, now: float, aid: int, silent: bool, worker: Worker
    ) -> None:
        """The environment killed the worker under this attempt.

        ``silent`` deaths (crashes, outages, unheeded preemptions) wait
        out the lease before the job is eligible for redelivery;
        anticipated ones (a drained preemption) redeliver immediately.
        """
        attempt = self._attempts[aid]
        if attempt.resolved:  # pragma: no cover - kills resolve first
            return
        attempt.resolved = True
        self._interruptions += 1
        self.fleet.book_waste(now - attempt.timing.started_s)
        job = attempt.job
        if silent:
            self._schedule_detect(now, worker, None if job.done else aid)
        elif not job.done:
            self._redeliver_or_dead_letter(now, job)

    def _schedule_detect(
        self, now: float, worker: Worker, aid: Optional[int]
    ) -> None:
        """A silent death is noticed when the replica's lease expires.

        A replica killed mid-boot "dies" at its would-be registration
        time: its absence is noticeable only once it should have
        heartbeat at all.  ``aid`` names the attempt to redeliver, if
        the death cost a job that is still owed an answer.
        """
        died = max(now, worker.ready_s)
        self.events.schedule(
            self.policy.detection_s(worker.ready_s, died),
            (self._handle_detect, (worker.wid, aid)),
        )

    def _redeliver_or_dead_letter(self, now: float, job: _Job) -> None:
        """Bounded redelivery: re-queue the job or give up on it."""
        stats = self.stats[job.request.scenario.value]
        if job.deliveries < self.policy.max_deliveries:
            stats.redelivered += 1
            job.enqueued_s = now
            job.queued = True
            self.queue.append(job)
            self._dispatch(now)
        else:
            job.done = True
            stats.dead_lettered += 1
            self.farm.dead_letter(
                f"req-{job.request.rid:06d}",
                "fleet",
                f"redelivery-exhausted after {job.deliveries} deliveries",
            )

    def _handle_complete(self, now: float, aid: int) -> None:
        attempt = self._attempts[aid]
        if attempt.resolved:
            return  # cancelled loser or interrupted attempt; already booked
        job = attempt.job
        request = job.request
        name = request.scenario.value
        stats = self.stats[name]
        attempt.resolved = True
        self._release_worker(attempt)
        timing = attempt.timing
        clean = timing.completed and not attempt.stretched
        first = attempt.delivery == 1 and not attempt.is_hedge
        if clean and first:
            # Only successful first-delivery runs teach the estimator
            # and the hedge-delay pool: a crashed, stretched, or hedged
            # duplicate's time says nothing about a healthy service.
            self.estimator.observe(request.scenario, request.rank, timing.service_s)
            insort(self._service_samples[name], timing.service_s)
        if timing.spec:
            stats.scheduled_specs[timing.spec] = (
                stats.scheduled_specs.get(timing.spec, 0) + 1
            )
            if clean:
                index = (request.rank - 1) % len(self.catalog)
                self._measured[(request.scenario, index, timing.spec)] = (
                    timing.service_s
                )
        job.done = True
        if timing.completed:
            stats.completed += 1
            experienced = now - timing.started_s
            self._pred_samples[name].append((timing.predicted_s, experienced))
            e2e = now - request.arrival_s
            self._e2e_samples[name].append(e2e)
            if e2e > job.budget_s:
                stats.slo_violations += 1
            else:
                stats.deadline_hits += 1
            if attempt.is_hedge:
                self._hedge_wins += 1
            if attempt.drain_protected:
                stats.preempted_drained += 1
        else:
            stats.dead_lettered += 1
        for loser in job.live_attempts():
            self._cancel_attempt(loser, now)
        self._dispatch(now)

    # -- fleet events ---------------------------------------------------------

    def _reconcile(self, now: float) -> None:
        """Move the fleet toward the autoscaler target, never reclaiming
        a busy replica (the scale-down invariant; audited in CI)."""
        for worker in self.fleet.reconcile(now, self.scaler.active):
            if worker.state == COLD:
                self.events.schedule(
                    worker.ready_s, (self._handle_ready, worker.wid)
                )
            if (
                worker.preempt_at_s is not None
                and worker.preempt_at_s <= self.config.arrivals.duration_s
            ):
                # Fault processes are active during the arrival window;
                # a preemption drawn past it never fires, so the drain
                # phase terminates.
                self.events.schedule(
                    worker.preempt_at_s, (self._handle_preempt, worker.wid)
                )

    def _handle_death(self, now: float, payload: Tuple[int, int]) -> None:
        wid, aid = payload
        worker = self.fleet.workers[wid]
        attempt = self._attempts[aid]
        if (
            attempt.resolved
            or worker.state != BUSY
            or worker.attempt_id != aid
        ):
            # The attempt was hedged away or the worker already died of
            # something else; the drawn crash has nothing left to kill.
            return
        self.fleet.kill(worker, now, "crash")
        self._interrupt(now, aid, silent=True, worker=worker)

    def _handle_detect(
        self, now: float, payload: Tuple[int, Optional[int]]
    ) -> None:
        wid, aid = payload
        self.fleet.mark_detected(self.fleet.workers[wid])
        if self.policy.replace_on_detect:
            # Detection is also when the fleet learns the replica is
            # gone: spawn the replacement now instead of waiting for the
            # autoscaler's next poll.
            self._reconcile(now)
        if aid is None:
            return  # an idle replica died; no job to redeliver
        job = self._attempts[aid].job
        if job.done or job.queued or job.live_attempts():
            return  # someone else (a hedge, usually) already owns it
        self._redeliver_or_dead_letter(now, job)

    def _handle_preempt(self, now: float, wid: int) -> None:
        worker = self.fleet.workers[wid]
        if worker.state in (DEAD, RETIRED):
            return
        if self.policy.drain_on_preempt:
            worker.preempt_notified = True
            if worker.attempt_id is not None:
                self._attempts[worker.attempt_id].drain_protected = True
            # Capacity just shrank by one serving replica; replace it
            # proactively so the cold start overlaps the notice window.
            self._reconcile(now)
        self.events.schedule(
            now + self.fleet.plan.preempt_notice_s,
            (self._handle_preempt_kill, wid),
        )

    def _handle_preempt_kill(self, now: float, wid: int) -> None:
        worker = self.fleet.workers[wid]
        if worker.state in (DEAD, RETIRED):
            return  # drained out (or died of something else) in time
        aid = worker.attempt_id
        anticipated = self.policy.drain_on_preempt
        self.fleet.kill(worker, now, "preempt", anticipated=anticipated)
        if aid is not None:
            self._interrupt(now, aid, silent=not anticipated, worker=worker)
        elif not anticipated:
            # An idle replica vanished without notice being heeded; the
            # control plane only learns at lease expiry.
            self._schedule_detect(now, worker, None)

    def _handle_ready(self, now: float, wid: int) -> None:
        self.fleet.mark_ready(self.fleet.workers[wid])
        self._dispatch(now)

    def _handle_hedge(self, now: float, aid: int) -> None:
        attempt = self._attempts[aid]
        job = attempt.job
        if attempt.resolved or job.done:
            return
        if job.deliveries >= self.policy.max_deliveries:
            return  # a duplicate is a delivery too; respect the bound
        worker = self.fleet.idle_worker()
        if worker is None:
            return  # never queue-jump real work for a hedge
        self._hedges_launched += 1
        self._launch(
            now,
            job,
            worker,
            spec=attempt.timing.spec,
            budget_override=attempt.budget_override,
            expected=attempt.timing.predicted_s,
            is_hedge=True,
        )

    def _handle_outage(self, now: float, window: OutageWindow) -> None:
        for worker in self.fleet.domain_members(window.domain):
            aid = worker.attempt_id
            self.fleet.kill(worker, now, "outage")
            if aid is not None:
                self._interrupt(now, aid, silent=True, worker=worker)
            else:
                # Idle and cold replicas die too; each is detected by
                # its own lease, because the outage itself is silent.
                self._schedule_detect(now, worker, None)

    def _handle_tick(self, now: float, _payload: None) -> None:
        busy = self.fleet.busy_count()
        self.scaler.evaluate(now, depth=len(self.queue), busy=busy)
        self._reconcile(now)
        self._dispatch(now)
        # Reconciling never frees a busy replica, and a job the dispatch
        # just started has its outcome event queued, so ``busy`` needs
        # no recount here.
        if (
            now < self.config.arrivals.duration_s
            or self.queue
            or busy > 0
            or self.events
            or self.scaler.active > self.config.autoscaler.min_workers
        ):
            self.events.schedule(
                now + self.config.autoscaler.poll_interval_s,
                (self._handle_tick, None),
            )

    # -- reporting ------------------------------------------------------------

    def _finalize(self, outages: int) -> SLOReport:
        for name, stats in self.stats.items():
            stats.queue_wait = LatencySummary.from_samples(self._wait_samples[name])
            stats.e2e = LatencySummary.from_samples(self._e2e_samples[name])
            stats.prediction = PredictionStats.from_samples(
                self._pred_samples[name]
            )
        fleet = self.fleet
        utilization = (
            fleet.busy_worker_s / fleet.capacity_worker_s
            if fleet.capacity_worker_s > 0
            else 0.0
        )
        # Schema v3: a run with no configured plan reports no fleet
        # block, so every committed no-chaos digest stays put.
        fleet_stats: Optional[FleetStats] = None
        if self.config.fleet is not None:
            scenarios = self.stats.values()
            fleet_stats = FleetStats(
                workers_spawned=len(fleet.workers),
                workers_lost=fleet.crashes + fleet.preemptions + fleet.outage_kills,
                crashes=fleet.crashes,
                preemptions=fleet.preemptions,
                outage_kills=fleet.outage_kills,
                outages=outages,
                interruptions=self._interruptions,
                redeliveries=sum(s.redelivered for s in scenarios),
                redelivery_dead_letters=sum(
                    1
                    for letter in self.farm.report.dead_letters
                    if letter.stage == "fleet"
                ),
                hedges_launched=self._hedges_launched,
                hedge_wins=self._hedge_wins,
                hedge_cancelled=sum(s.hedge_cancelled for s in scenarios),
                reclaimed_busy=fleet.reclaimed_busy,
                availability=fleet.availability,
                time_to_recover=LatencySummary.from_samples(fleet.ttr_samples),
                wasted_compute_s=fleet.wasted_compute_s,
                wasted_cost_usd=self.farm.costs.model.compute_dollars(
                    fleet.wasted_compute_s
                ),
            )
        return SLOReport(
            seed=self.seed,
            duration_s=self.config.arrivals.duration_s,
            # The event clock is monotone: where it stopped is the last
            # event's time.
            makespan_s=self.clock.now,
            scenarios=self.stats,
            scale_events=list(self.scaler.events),
            min_workers=self.config.autoscaler.min_workers,
            max_workers=self.config.autoscaler.max_workers,
            peak_workers=self.scaler.peak,
            utilization=utilization,
            busy_worker_s=fleet.busy_worker_s,
            catalog_size=self.config.catalog_size,
            predictor_enabled=self.scheduler is not None,
            compute_hours=self.farm.costs.compute_hours,
            total_cost_usd=self.farm.costs.total_cost,
            chaos_profile=self.config.chaos_profile,
            fleet=fleet_stats,
        )


def run_traffic(
    config: Optional[TrafficConfig] = None,
    seed: int = 0,
) -> SLOReport:
    """Convenience wrapper: build a simulator, run it, return the report."""
    return TrafficSimulator(config=config, seed=seed).run()
