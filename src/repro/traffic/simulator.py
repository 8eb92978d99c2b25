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
job's dispatch time exactly as the farm does for its own workers.  All
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
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.scenarios import Scenario
from repro.pipeline.farm import FarmConfig, JobTiming, TranscodeFarm
from repro.pipeline.scheduler import (
    DEFAULT_CANDIDATES,
    DEFAULT_UPLOAD_FACTOR,
    DeadlineScheduler,
    ScheduleDecision,
)
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
    percentile,
)
from repro.video.synthesis import synthesize
from repro.video.video import Video

__all__ = ["TrafficConfig", "TrafficSimulator", "run_traffic"]

#: Fixed catalog content rotation (explicit tuple, not dict order).
_CONTENT_CYCLE = (
    "slideshow",
    "screencast",
    "animation",
    "natural",
    "gaming",
    "sports",
)

#: EWMA weight for the service-time estimator feeding admission control.
_EWMA_ALPHA = 0.3

#: What ``TrafficConfig.fleet=None`` means: replicas that never fail and
#: boot instantly.  Run under :data:`NAIVE_POLICY`, so hedging stays off.
_IDEAL_PLAN = FleetFaultPlan(cold_start_s=0.0)

# Event kinds, popped from the EventQueue.
_ARRIVAL = "arrival"
_COMPLETE = "complete"
_TICK = "tick"
_DEATH = "death"  # a worker crashes silently mid-job
_DETECT = "detect"  # a silent death's lease expires
_PREEMPT = "preempt"  # spot preemption notice
_PREEMPT_KILL = "preempt-kill"  # the preemption actually lands
_READY = "ready"  # a cold-started worker comes online
_HEDGE = "hedge"  # a job ran past its hedge delay
_OUTAGE = "outage"  # a correlated outage window opens


@dataclass(frozen=True)
class TrafficConfig:
    """Everything one traffic experiment is parameterized by.

    Attributes:
        arrivals: The offered load (rates, shares, diurnal, spikes).
        admission: Per-class admission policies.
        autoscaler: The worker-fleet scaling policy.
        catalog_size: Number of synthesized titles requests draw from.
        time_scale: Service-time multiplier (see module docstring);
            forwarded to :class:`~repro.pipeline.farm.FarmConfig`.
        clip_width: Stand-in clip geometry (kept tiny so the catalog
            synthesizes in milliseconds).
        clip_height: See ``clip_width``.
        clip_frames: Frames per stand-in clip.
        clip_fps: Frame rate; with ``clip_frames`` this sets the clip
            duration and therefore Live's real-time deadline budget.
        use_predictor: Replace the EWMA service-time estimator with the
            transcode-time predictor and schedule each job at the
            highest-quality operating point whose predicted time fits
            its remaining deadline budget (the predictor arm).  Off by
            default: the EWMA arm is the committed baseline.
        scheduler_candidates: Operating points the predictor arm may
            choose among (defaults to the delivery degradation ladder).
        upload_factor: Upload's throughput target as a multiple of
            realtime, used by the scheduler's Upload budget.
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
    clip_width: int = 48
    clip_height: int = 32
    clip_frames: int = 6
    clip_fps: float = 12.0
    use_predictor: bool = False
    scheduler_candidates: Tuple[str, ...] = DEFAULT_CANDIDATES
    upload_factor: float = DEFAULT_UPLOAD_FACTOR
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
        if self.clip_frames < 1:
            raise ValueError(f"clips need >= 1 frame, got {self.clip_frames}")
        if not math.isfinite(self.clip_fps) or self.clip_fps <= 0:
            raise ValueError(f"clip fps must be positive, got {self.clip_fps}")
        if not math.isfinite(self.upload_factor) or self.upload_factor <= 0:
            raise ValueError(
                "upload factor must be positive and finite, got "
                f"{self.upload_factor}"
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
    pending_detects: int = 0
    attempts: List["_Attempt"] = field(default_factory=list)

    def live_attempts(self) -> List["_Attempt"]:
        return [a for a in self.attempts if not a.resolved]


@dataclass
class _Attempt:
    """One dispatch of a job onto one worker."""

    aid: int
    job: _Job
    wid: int  # the replica it runs on (``FleetState.workers`` key)
    timing: JobTiming
    started_s: float
    delivery: int
    is_hedge: bool = False
    stretched: bool = False
    crashed: bool = False
    drain_protected: bool = False
    resolved: bool = False
    spec: Optional[str] = None
    budget_override: Optional[float] = None
    expected_s: float = 0.0


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
        self.busy = 0  # in-flight attempts (== busy workers)
        self.stats: Dict[str, ScenarioStats] = {}
        self._wait_samples: Dict[str, List[float]] = {}
        self._e2e_samples: Dict[str, List[float]] = {}
        self._pred_samples: Dict[str, List[Tuple[float, float]]] = {}
        # Clean first-delivery service times per scenario: the sample
        # pool the p99 hedge delay derives from.
        self._service_samples: Dict[str, List[float]] = {}
        self._attempts: Dict[int, _Attempt] = {}
        self._next_aid = 0
        # Fleet-level counters folded into FleetStats at finalize.
        self._interruptions = 0
        self._redeliveries = 0
        self._redelivery_dead_letters = 0
        self._hedges_launched = 0
        self._hedge_wins = 0
        self._hedge_cancelled = 0
        self._outage_count = 0
        # Service-time estimation for admission's wait predictions: the
        # EWMA arm learns only from completions; the predictor arm seeds
        # cold starts from the committed transcode-time models.
        self.scheduler: Optional[DeadlineScheduler] = None
        if self.config.use_predictor:
            self.scheduler = DeadlineScheduler(
                candidates=self.config.scheduler_candidates,
                cost_model=self.farm.costs.model,
                time_scale=self.config.time_scale,
                upload_factor=self.config.upload_factor,
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
        # Capacity accounting for the utilization number.
        self._accrued_to = 0.0
        self._busy_worker_s = 0.0
        self._capacity_s = 0.0
        self._makespan = 0.0

    # -- setup ----------------------------------------------------------------

    def _make_title(self, rank: int) -> Video:
        content = _CONTENT_CYCLE[(rank - 1) % len(_CONTENT_CYCLE)]
        return synthesize(
            content,
            self.config.clip_width,
            self.config.clip_height,
            self.config.clip_frames,
            self.config.clip_fps,
            seed=self.seed * 1009 + rank,
            name=f"title-{rank:04d}-{content}",
        )

    def _stats_for(self, scenario: Scenario) -> ScenarioStats:
        name = scenario.value
        if name not in self.stats:
            self.stats[name] = ScenarioStats(scenario=name)
            self._wait_samples[name] = []
            self._e2e_samples[name] = []
            self._service_samples[name] = []
        return self.stats[name]

    def _video_for(self, request: Request) -> Video:
        return self.catalog[(request.rank - 1) % len(self.catalog)]

    # -- service-time estimation ----------------------------------------------

    def _expected_service_s(self, request: Request) -> float:
        """Best estimate of this request's service time.

        Delegates to the :class:`ServiceTimeEstimator`: exact once this
        (scenario, rank) has completed before (the farm is
        deterministic, so a repeat costs what it cost last time); then
        the predictor (predictor arm only); then the scenario's own
        EWMA; then the optimistic 0.0 prior, so the first requests of an
        unseeded cold run are admitted rather than guessed away.
        """
        return self.estimator.expected(request.scenario, request.rank)

    def _observe_service(self, request: Request, service_s: float) -> None:
        self.estimator.observe(request.scenario, request.rank, service_s)

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
        service = self._expected_service_s(request)
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
        samples = self._service_samples.get(scenario.value, [])
        if len(samples) < self.policy.hedge_min_samples:
            return None
        return percentile(samples, 99.0) * self.policy.hedge_p99_multiplier

    # -- the event loop -------------------------------------------------------

    def run(self) -> SLOReport:
        """Run the experiment to completion and return its report."""
        requests = generate_arrivals(
            self.config.arrivals, self.config.catalog_size, self.seed
        )
        for scenario in (Scenario.UPLOAD, Scenario.LIVE, Scenario.VOD):
            self._stats_for(scenario)
        self.events.schedule(0.0, (_TICK, None))
        for request in requests:
            self._stats_for(request.scenario).arrived += 1
            self.events.schedule(request.arrival_s, (_ARRIVAL, (request, 1)))
        for window in generate_outages(
            self.fleet.plan, self.config.arrivals.duration_s
        ):
            self.events.schedule(window.at_s, (_OUTAGE, window))
        while self.events:
            when, (kind, payload) = self.events.pop()
            self._accrue(when)
            self.clock.advance_to(when)
            now = self.clock.now
            self._makespan = max(self._makespan, now)
            if kind == _ARRIVAL:
                request, attempt = payload
                self._handle_arrival(now, request, attempt)
            elif kind == _COMPLETE:
                self._handle_complete(now, payload)
            elif kind == _TICK:
                self._handle_tick(now)
            elif kind == _DEATH:
                self._handle_death(now, payload)
            elif kind == _DETECT:
                self._handle_detect(now, payload)
            elif kind == _PREEMPT:
                self._handle_preempt(now, payload)
            elif kind == _PREEMPT_KILL:
                self._handle_preempt_kill(now, payload)
            elif kind == _READY:
                self._handle_ready(now, payload)
            elif kind == _HEDGE:
                self._handle_hedge(now, payload)
            elif kind == _OUTAGE:
                self._handle_outage(now, payload)
            else:  # pragma: no cover - the loop schedules only known kinds
                raise RuntimeError(f"unknown event kind {kind!r}")
        return self._finalize()

    def _accrue(self, until: float) -> None:
        """Integrate busy/capacity worker-seconds up to ``until``."""
        self.fleet.accrue(until, self.scaler.active)
        dt = until - self._accrued_to
        if dt <= 0:
            return
        self._busy_worker_s += self.busy * dt
        # Workers finishing jobs after a scale-down still exist until they
        # drain, so capacity is never less than what is actually busy.
        self._capacity_s += max(self.scaler.active, self.busy) * dt
        self._accrued_to = until

    def _handle_arrival(self, now: float, request: Request, attempt: int) -> None:
        stats = self._stats_for(request.scenario)
        video = self._video_for(request)
        budget = self.farm.config.deadlines.budget_s(video, request.scenario)
        slack = budget - self._expected_service_s(request)
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
                now + decision.retry_delay_s, (_ARRIVAL, (request, attempt + 1))
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
        stats = self._stats_for(request.scenario)
        wait = now - job.enqueued_s
        elapsed = now - request.arrival_s
        delivery = job.deliveries + 1
        self._wait_samples[request.scenario.value].append(wait)
        video = self._video_for(request)
        budget = job.budget_s
        spec: Optional[str] = None
        budget_override: Optional[float] = None
        if self.scheduler is not None:
            decision = self._full_budget_decision(request)
            if request.scenario.realtime:
                if delivery == 1:
                    # Queue wait already spent part of the budget; pick
                    # the best operating point that fits what is *left*,
                    # and hand the farm that remaining budget so its
                    # retry policy respects it too.
                    remaining = max(budget - wait, 0.0)
                    if remaining < budget:
                        decision = self.scheduler.choose(
                            self._features_for(request),
                            self.farm.job_rate(video, request.scenario),
                            remaining,
                            measured_s=self._measured_for(request),
                        )
                    budget_override = remaining
                else:
                    # A redelivery's deadline clock never stopped: the
                    # wait already served and the wasted attempt are
                    # sunk, so re-plan against what is left (falling
                    # back to the fastest rung when nothing fits).
                    decision = self.scheduler.choose_remaining(
                        self._features_for(request),
                        self.farm.job_rate(video, request.scenario),
                        budget,
                        elapsed,
                        measured_s=self._measured_for(request),
                    )
                    budget_override = max(budget - elapsed, 0.0)
            spec = decision.spec
            expected = decision.predicted_s
        else:
            expected = self._expected_service_s(request)
        staleness = wait if delivery == 1 else elapsed
        if request.scenario.realtime and staleness + expected > budget:
            # Too stale to bother: starting it now would only waste a
            # worker on a stream that has already moved on.
            stats.timed_out += 1
            job.done = True
            return
        self._launch(
            now,
            job,
            worker,
            delivery,
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
        delivery: int,
        spec: Optional[str],
        budget_override: Optional[float],
        expected: float,
        is_hedge: bool,
    ) -> None:
        """Run one attempt on the idle ``worker`` and schedule its outcome."""
        request = job.request
        video = self._video_for(request)
        self.busy += 1
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
            started_s=now,
            delivery=delivery,
            is_hedge=is_hedge,
            spec=spec,
            budget_override=budget_override,
            expected_s=expected,
        )
        self._attempts[aid] = attempt
        job.attempts.append(attempt)
        job.deliveries += 1
        self.fleet.assign(worker, aid)
        fault = self.fleet.draw_fault(worker, timing.service_s)
        if fault.kind == "crash" and timing.completed:
            # The worker dies partway through; nothing completes, nobody
            # notices until the lease expires.
            attempt.crashed = True
            self.events.schedule(
                now + fault.crash_after_s, (_DEATH, (worker.wid, aid))
            )
        elif fault.kind == "straggle":
            attempt.stretched = True
            self.events.schedule(
                now + timing.service_s * fault.factor, (_COMPLETE, aid)
            )
        else:
            self.events.schedule(timing.finished_s, (_COMPLETE, aid))
        if not is_hedge:
            delay = self._hedge_delay_s(request.scenario)
            if delay is not None:
                self.events.schedule(now + delay, (_HEDGE, aid))

    # -- attempt resolution ---------------------------------------------------

    def _release_worker(self, attempt: _Attempt) -> None:
        worker = self.fleet.workers[attempt.wid]
        if worker.state == BUSY and worker.attempt_id == attempt.aid:
            self.fleet.release(worker)

    def _cancel_attempt(self, attempt: _Attempt, now: float) -> None:
        """A racing duplicate lost: free its worker, book the waste."""
        attempt.resolved = True
        self.busy -= 1
        self._hedge_cancelled += 1
        self._stats_for(attempt.job.request.scenario).hedge_cancelled += 1
        self.fleet.book_waste(now - attempt.started_s)
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
        self.busy -= 1
        self._interruptions += 1
        self.fleet.book_waste(now - attempt.started_s)
        job = attempt.job
        if silent:
            if not job.done:
                job.pending_detects += 1
            self.events.schedule(
                self.policy.detection_s(worker.ready_s, now),
                (_DETECT, (worker.wid, aid if not job.done else None)),
            )
        elif not job.done:
            self._redeliver_or_dead_letter(now, job)

    def _redeliver_or_dead_letter(self, now: float, job: _Job) -> None:
        """Bounded redelivery: re-queue the job or give up on it."""
        stats = self._stats_for(job.request.scenario)
        if job.deliveries < self.policy.max_deliveries:
            stats.redelivered += 1
            self._redeliveries += 1
            job.enqueued_s = now
            job.queued = True
            self.queue.append(job)
            self._dispatch(now)
        else:
            job.done = True
            stats.dead_lettered += 1
            self._redelivery_dead_letters += 1
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
        stats = self._stats_for(request.scenario)
        attempt.resolved = True
        self.busy -= 1
        self._release_worker(attempt)
        timing = attempt.timing
        clean = timing.completed and not attempt.stretched
        first = attempt.delivery == 1 and not attempt.is_hedge
        if clean and first:
            # Only successful first-delivery runs teach the estimator
            # and the hedge-delay pool: a crashed, stretched, or hedged
            # duplicate's time says nothing about a healthy service.
            self._observe_service(request, timing.service_s)
            self._service_samples[request.scenario.value].append(
                timing.service_s
            )
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
            experienced = now - attempt.started_s
            self._pred_samples.setdefault(request.scenario.value, []).append(
                (timing.predicted_s, experienced)
            )
            e2e = now - request.arrival_s
            self._e2e_samples[request.scenario.value].append(e2e)
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
                self.events.schedule(worker.ready_s, (_READY, worker.wid))
            if (
                worker.preempt_at_s is not None
                and worker.preempt_at_s <= self.config.arrivals.duration_s
            ):
                # Fault processes are active during the arrival window;
                # a preemption drawn past it never fires, so the drain
                # phase terminates.
                self.events.schedule(
                    worker.preempt_at_s, (_PREEMPT, worker.wid)
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
        job.pending_detects -= 1
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
            now + self.fleet.plan.preempt_notice_s, (_PREEMPT_KILL, wid)
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
            self.events.schedule(
                self.policy.detection_s(worker.ready_s, now),
                (_DETECT, (wid, None)),
            )

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
            job.deliveries + 1,
            spec=attempt.spec,
            budget_override=attempt.budget_override,
            expected=attempt.expected_s,
            is_hedge=True,
        )

    def _handle_outage(self, now: float, window: OutageWindow) -> None:
        self._outage_count += 1
        for worker in self.fleet.domain_members(window.domain):
            aid = worker.attempt_id
            self.fleet.kill(worker, now, "outage")
            if aid is not None:
                self._interrupt(now, aid, silent=True, worker=worker)
            else:
                # Idle and cold replicas die too; each is detected by
                # its own lease, because the outage itself is silent.
                # A replica killed mid-boot "dies" at its would-be
                # registration time — its absence is noticeable only
                # once it should have heartbeat at all.
                died = max(now, worker.ready_s)
                self.events.schedule(
                    self.policy.detection_s(worker.ready_s, died),
                    (_DETECT, (worker.wid, None)),
                )

    def _handle_tick(self, now: float) -> None:
        self.scaler.evaluate(now, depth=len(self.queue), busy=self.busy)
        self._reconcile(now)
        self._dispatch(now)
        next_tick = now + self.config.autoscaler.poll_interval_s
        if (
            now < self.config.arrivals.duration_s
            or self.queue
            or self.busy > 0
            or self.events
            or self.scaler.active > self.config.autoscaler.min_workers
        ):
            self.events.schedule(next_tick, (_TICK, None))

    # -- reporting ------------------------------------------------------------

    def _finalize(self) -> SLOReport:
        for name, stats in self.stats.items():
            stats.queue_wait = LatencySummary.from_samples(self._wait_samples[name])
            stats.e2e = LatencySummary.from_samples(self._e2e_samples[name])
            stats.prediction = PredictionStats.from_samples(
                self._pred_samples.get(name, [])
            )
        utilization = (
            self._busy_worker_s / self._capacity_s if self._capacity_s > 0 else 0.0
        )
        fleet_stats: Optional[FleetStats] = FleetStats(
            workers_spawned=self.fleet.spawned,
            workers_lost=self.fleet.lost,
            crashes=self.fleet.crashes,
            preemptions=self.fleet.preemptions,
            outage_kills=self.fleet.outage_kills,
            outages=self._outage_count,
            interruptions=self._interruptions,
            redeliveries=self._redeliveries,
            redelivery_dead_letters=self._redelivery_dead_letters,
            hedges_launched=self._hedges_launched,
            hedge_wins=self._hedge_wins,
            hedge_cancelled=self._hedge_cancelled,
            reclaimed_busy=self.fleet.reclaimed_busy,
            availability=self.fleet.availability,
            time_to_recover=LatencySummary.from_samples(
                self.fleet.ttr_samples
            ),
            wasted_compute_s=self.fleet.wasted_compute_s,
            wasted_cost_usd=self.farm.costs.model.compute_dollars(
                self.fleet.wasted_compute_s
            ),
        )
        if self.config.fleet is None:
            # Schema v3: a run with no configured plan reports no fleet
            # block, so every committed no-chaos digest stays put.
            fleet_stats = None
        return SLOReport(
            seed=self.seed,
            duration_s=self.config.arrivals.duration_s,
            makespan_s=self._makespan,
            scenarios=self.stats,
            scale_events=list(self.scaler.events),
            min_workers=self.config.autoscaler.min_workers,
            max_workers=self.config.autoscaler.max_workers,
            peak_workers=self.scaler.peak,
            utilization=utilization,
            busy_worker_s=self._busy_worker_s,
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
