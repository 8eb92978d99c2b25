"""A fault-tolerant transcoding farm over the sharing service.

:class:`TranscodeFarm` simulates N workers driving
:class:`~repro.pipeline.service.SharingService` uploads and Popular
promotions through the full robustness stack of :mod:`repro.robust`:

* every transcode runs behind :class:`ResilientTranscoder` — retries with
  capped, jittered backoff; per-backend circuit breakers; per-scenario
  deadline budgets (Live's real-time constraint is a hard deadline: a
  retry that would blow the budget is never attempted); and the graceful
  degradation ladder down to faster presets and finally the hardware
  model;
* compute wasted on crashed and corrupted attempts is booked into the
  service's :class:`~repro.pipeline.costs.CostReport` — chaos is not
  free, and the cost report shows exactly what it cost;
* jobs that exhaust the entire ladder land in a dead-letter queue instead
  of raising, so one poisoned upload cannot take down the batch;
* everything observable lands in a :class:`RobustnessReport` whose text
  rendering is byte-stable under a fixed seed.

Time is simulated (:class:`~repro.robust.clock.SimClock`): the farm seeks
the clock to each worker's frontier before running its next job, which
models parallelism deterministically on one interpreter thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.scenarios import Scenario
from repro.encoders.base import (
    RateSpec,
    ScaledTranscoder,
    Transcoder,
    TranscodeResult,
)
from repro.encoders.registry import HARDWARE_BACKENDS, get_transcoder
from repro.pipeline.costs import CostModel, CostReport
from repro.pipeline.service import ServiceConfig, SharingService, VideoRecord
from repro.robust.breaker import BreakerState, CircuitBreaker
from repro.robust.clock import SimClock
from repro.robust.degrade import (
    DEFAULT_PRESET_FALLBACKS,
    DowngradeEvent,
    degradation_ladder,
)
from repro.robust.faults import (
    BackendOutage,
    FaultCounts,
    FaultPlan,
    FaultyTranscoder,
    TransientFault,
)
from repro.robust.retry import DeadlineBudget, DeadlinePolicy, RetryPolicy
from repro.video.video import Video

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.exec.cache import CacheStats, TranscodeCache

__all__ = [
    "DeadLetter",
    "FarmConfig",
    "FarmJobError",
    "JobTiming",
    "ResilientTranscoder",
    "RobustnessReport",
    "TranscodeFarm",
]


class FarmJobError(RuntimeError):
    """Every rung of the degradation ladder failed for one transcode."""

    def __init__(self, job: str, reason: str) -> None:
        super().__init__(f"job {job!r} exhausted its ladder: {reason}")
        self.job = job
        self.reason = reason


@dataclass(frozen=True)
class FarmConfig:
    """Farm-level robustness policy.

    Attributes:
        workers: Simulated parallel workers.
        retry: Backoff policy per ladder rung.
        deadlines: Per-scenario deadline budgets.
        breaker_failure_threshold: Consecutive failures that open a
            backend's circuit.
        breaker_cooldown_s: Simulated seconds an open circuit waits
            before admitting probes.
        breaker_half_open_probes: Probe calls a half-open circuit admits
            before it decides to close or reopen.
        quality_floor_db: Outputs below this PSNR are treated as
            corrupted (failed) attempts.
        outage_detect_s: Simulated cost of discovering a dead backend
            (connection timeout).
        preset_fallbacks: Software presets the degradation ladder may
            fall to.
        hardware_fallback: Final ladder rung (a hardware backend spec),
            or ``None`` for software-only ladders.
        time_scale: Multiplier applied to every backend's modeled
            ``seconds``.  The suite's clips are tiny stand-ins for the
            category resolutions they represent, so their modeled times
            are milliseconds; the traffic simulator scales them back up to
            the represented scale so queueing and deadlines are exercised
            realistically.  ``1.0`` (the default) leaves time untouched.
    """

    workers: int = 4
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    deadlines: DeadlinePolicy = field(default_factory=DeadlinePolicy)
    breaker_failure_threshold: int = 4
    breaker_cooldown_s: float = 30.0
    breaker_half_open_probes: int = 1
    quality_floor_db: float = 15.0
    outage_detect_s: float = 0.01
    preset_fallbacks: Tuple[str, ...] = DEFAULT_PRESET_FALLBACKS
    hardware_fallback: Optional[str] = "qsv"
    time_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"need at least one worker, got {self.workers}")
        if not math.isfinite(self.time_scale) or self.time_scale <= 0:
            raise ValueError(
                f"time scale must be positive and finite, got {self.time_scale}"
            )
        if not math.isfinite(self.breaker_cooldown_s) or self.breaker_cooldown_s <= 0:
            raise ValueError(
                "breaker cooldown must be positive and finite, got "
                f"{self.breaker_cooldown_s}"
            )
        if not math.isfinite(self.quality_floor_db) or self.quality_floor_db < 0:
            raise ValueError(
                "quality floor must be non-negative and finite, got "
                f"{self.quality_floor_db}"
            )
        if not math.isfinite(self.outage_detect_s) or self.outage_detect_s < 0:
            raise ValueError(
                "outage detection cost must be >= 0 and finite, got "
                f"{self.outage_detect_s}"
            )


@dataclass(frozen=True)
class DeadLetter:
    """A job the farm gave up on, with enough context to replay it."""

    job: str
    stage: str  # "upload", "promote", "job", or "fleet"
    reason: str


@dataclass(frozen=True)
class JobTiming:
    """Per-job timing of one externally-scheduled transcode.

    Returned by :meth:`TranscodeFarm.execute_job` so a scheduler above
    the farm (the traffic simulator) can account queue wait and service
    time per request.

    Attributes:
        job: Job label (defaults to the video name).
        scenario: The scenario the job ran under.
        started_s: Simulated time the transcode started.
        finished_s: Simulated time it completed (or dead-lettered).
        completed: Whether the job produced output; ``False`` means the
            whole degradation ladder failed and the job dead-lettered.
        reason: The dead-letter reason when ``completed`` is ``False``.
        spec: Rung-0 operating point the job was started at.
        predicted_s: Scheduler-predicted service seconds, when a
            deadline scheduler chose ``spec`` (0.0 otherwise).
    """

    job: str
    scenario: Scenario
    started_s: float
    finished_s: float
    completed: bool
    reason: str = ""
    spec: str = ""
    predicted_s: float = 0.0

    @property
    def service_s(self) -> float:
        """Simulated seconds the job occupied its worker."""
        return self.finished_s - self.started_s


@dataclass
class RobustnessReport:
    """Everything a chaos experiment observed.

    ``to_text()`` renders with fixed precision and sorted keys, so two
    runs under the same seed produce byte-identical reports.
    """

    jobs_total: int = 0
    jobs_completed: int = 0
    attempts: int = 0
    retries: int = 0
    deadline_retry_skips: int = 0
    deadline_misses: int = 0
    transient_failures: int = 0
    outage_failures: int = 0
    corrupt_detected: int = 0
    wasted_compute_s: float = 0.0
    makespan_s: float = 0.0
    downgrades: List[DowngradeEvent] = field(default_factory=list)
    dead_letters: List[DeadLetter] = field(default_factory=list)
    breaker_states: Dict[str, str] = field(default_factory=dict)
    breaker_failures: Dict[str, int] = field(default_factory=dict)
    injected: Dict[str, FaultCounts] = field(default_factory=dict)

    @property
    def jobs_dead_lettered(self) -> int:
        return len(self.dead_letters)

    @property
    def stream_corruptions(self) -> int:
        """Transcodes whose output bitstream was corrupted in flight."""
        return sum(c.stream_corruptions for c in self.injected.values())

    @property
    def stream_corrupted_frames(self) -> int:
        """Frames the decoder concealed across all stream corruptions."""
        return sum(c.stream_corrupted_frames for c in self.injected.values())

    @property
    def stream_frames_seen(self) -> int:
        """Frames decoded (concealed or not) across all stream corruptions."""
        return sum(c.stream_frames_seen for c in self.injected.values())

    @property
    def stream_decodable_fraction(self) -> float:
        """Fraction of frames in corrupted streams decoded without
        concealment (1.0 when no stream corruption was injected)."""
        if self.stream_frames_seen == 0:
            return 1.0
        return 1.0 - self.stream_corrupted_frames / self.stream_frames_seen

    def to_text(self) -> str:
        lines = [
            "RobustnessReport",
            f"  jobs:            {self.jobs_total} total, "
            f"{self.jobs_completed} completed, "
            f"{self.jobs_dead_lettered} dead-lettered",
            f"  attempts:        {self.attempts} "
            f"({self.retries} retries, "
            f"{self.deadline_retry_skips} retries skipped by deadline)",
            f"  faults seen:     transient={self.transient_failures} "
            f"outage={self.outage_failures} corrupt={self.corrupt_detected}",
            f"  deadline misses: {self.deadline_misses}",
            f"  wasted compute:  {self.wasted_compute_s:.6f} s",
            f"  makespan:        {self.makespan_s:.6f} s",
            f"  downgrades ({len(self.downgrades)}):",
        ]
        for event in self.downgrades:
            lines.append(
                f"    {event.job}: {event.from_spec} -> {event.to_spec} "
                f"[{event.reason}]"
            )
        lines.append("  breakers:")
        for spec in sorted(self.breaker_states):
            lines.append(
                f"    {spec}: {self.breaker_states[spec]} "
                f"({self.breaker_failures.get(spec, 0)} consecutive failures)"
            )
        lines.append("  injected faults:")
        for spec in sorted(self.injected):
            counts = self.injected[spec]
            line = (
                f"    {spec}: crashes={counts.crashes} "
                f"stragglers={counts.stragglers} "
                f"corruptions={counts.corruptions} outages={counts.outages}"
            )
            if counts.stream_corruptions:
                line += f" stream_corruptions={counts.stream_corruptions}"
            lines.append(line)
        if self.stream_corruptions:
            lines.append(
                f"  stream damage:   {self.stream_corruptions} streams, "
                f"{self.stream_corrupted_frames}/{self.stream_frames_seen} "
                f"frames concealed "
                f"(decodable fraction {self.stream_decodable_fraction:.3f})"
            )
        lines.append(f"  dead letters ({len(self.dead_letters)}):")
        for letter in self.dead_letters:
            lines.append(f"    {letter.job} [{letter.stage}]: {letter.reason}")
        return "\n".join(lines)


class ResilientTranscoder(Transcoder):
    """Retry + breaker + degradation around a ladder of backends.

    Implements the plain :class:`Transcoder` interface, so it drops into
    :class:`SharingService` unchanged.  Each ``transcode`` call is one
    *job attempt stream*: rung by rung down the ladder, with per-rung
    retries, a deadline budget shared across the whole call, and wasted
    compute booked into ``costs``.

    Args:
        ladder: Backend specs, most-preferred first.
        pool: Shared spec -> transcoder instances (fault-wrapped or not).
        breakers: Shared spec -> circuit breaker.
        clock: The farm clock.
        retry: Backoff policy.
        report: The farm's report (mutated in place).
        config: Farm policy (quality floor, outage cost).
        costs: The ledger wasted compute is booked into.
    """

    def __init__(
        self,
        ladder: Sequence[str],
        pool: Dict[str, Transcoder],
        breakers: Dict[str, CircuitBreaker],
        clock: SimClock,
        retry: RetryPolicy,
        report: RobustnessReport,
        config: FarmConfig,
        costs: CostReport,
    ) -> None:
        if not ladder:
            raise ValueError("a resilient transcoder needs at least one rung")
        self.ladder = list(ladder)
        self.pool = pool
        self.breakers = breakers
        self.clock = clock
        self.retry = retry
        self.report = report
        self.config = config
        self.costs = costs
        self.name = f"resilient({self.ladder[0]})"
        self._budget_s: Optional[float] = None

    def set_budget(self, budget_s: Optional[float]) -> None:
        """Deadline budget applied to each subsequent ``transcode`` call."""
        self._budget_s = budget_s

    # -- internals ------------------------------------------------------------

    def _book_waste(self, seconds: float) -> None:
        self.report.wasted_compute_s += seconds
        self.costs.add_compute(seconds)

    def _adapt_rate(self, spec: str, rate: RateSpec) -> RateSpec:
        """Hardware rungs have no two-pass mode; fall back to single pass."""
        backend = spec.partition(":")[0]
        if backend in HARDWARE_BACKENDS and rate.two_pass:
            return RateSpec.for_bitrate(rate.bitrate_bps, two_pass=False)
        return rate

    def _downgrade(self, job: str, index: int, reason: str) -> None:
        """Record the fall from rung ``index`` to the next one."""
        self.report.downgrades.append(
            DowngradeEvent(
                job=job,
                from_spec=self.ladder[index],
                to_spec=self.ladder[index + 1],
                reason=reason,
            )
        )

    # -- the resilient call ----------------------------------------------------

    def transcode(self, video: Video, rate: RateSpec) -> TranscodeResult:
        budget = DeadlineBudget(self.clock, self._budget_s)
        last_reason = "no rung admitted the job"
        for index, spec in enumerate(self.ladder):
            last_rung = index == len(self.ladder) - 1
            breaker = self.breakers[spec]
            # The final rung is the last resort: it runs even through an
            # open breaker, because refusing it means losing the job.
            if not last_rung and not breaker.allow(self.clock.now):
                self._downgrade(video.name, index, "breaker-open")
                last_reason = f"{spec}: circuit open"
                continue
            transcoder = self.pool[spec]
            adapted = self._adapt_rate(spec, rate)
            failures = 0
            while True:
                self.report.attempts += 1
                try:
                    result = transcoder.transcode(video, adapted)
                except BackendOutage as fault:
                    self.clock.advance(self.config.outage_detect_s)
                    breaker.record_failure(self.clock.now)
                    self.report.outage_failures += 1
                    last_reason = str(fault)
                except TransientFault as fault:
                    self.clock.advance(fault.wasted_seconds)
                    self._book_waste(fault.wasted_seconds)
                    breaker.record_failure(self.clock.now)
                    self.report.transient_failures += 1
                    last_reason = str(fault)
                else:
                    self.clock.advance(result.seconds)
                    if result.quality_db < self.config.quality_floor_db:
                        # Corrupted output: the compute is spent, the
                        # bytes are garbage.
                        self._book_waste(result.seconds)
                        breaker.record_failure(self.clock.now)
                        self.report.corrupt_detected += 1
                        last_reason = (
                            f"{spec}: output quality "
                            f"{result.quality_db:.1f} dB below floor"
                        )
                    else:
                        breaker.record_success()
                        if budget.exceeded:
                            self.report.deadline_misses += 1
                        return result
                failures += 1
                if failures >= self.retry.max_attempts:
                    if not last_rung:
                        self._downgrade(video.name, index, "retries-exhausted")
                    break
                delay = self.retry.backoff_s(failures, key=spec)
                if not budget.allows(delay):
                    self.report.deadline_retry_skips += 1
                    if not last_rung:
                        self._downgrade(video.name, index, "deadline")
                    break
                self.clock.advance(delay)
                self.report.retries += 1
        raise FarmJobError(video.name, last_reason)


class _FarmService(SharingService):
    """Sharing service whose Popular promotions survive backend failure.

    A failed promotion is dead-lettered and the record stays unpromoted
    (it will be retried the next time its view count crosses the
    threshold check), instead of aborting the whole view batch.
    """

    def __init__(self, farm: "TranscodeFarm", **kwargs) -> None:
        super().__init__(**kwargs)
        self._farm = farm
        # One ledger: the farm made it first, so that its adapters could
        # be built holding it, and the service books into the same one.
        self.costs = farm.costs

    def _promote(self, record: VideoRecord) -> None:
        farm = self._farm
        farm._popular.set_budget(
            farm.config.deadlines.budget_s(record.video, Scenario.POPULAR)
        )
        try:
            super()._promote(record)
        except FarmJobError as error:
            farm.dead_letter(record.name, "promote", error.reason)

    def serve_views(self, views_by_name: Dict[str, int]) -> List[str]:
        promoted = super().serve_views(views_by_name)
        # A swallowed promotion failure leaves the record unpromoted; only
        # report the promotions that actually happened.
        return [name for name in promoted if self.catalog[name].popular]


class TranscodeFarm:
    """N simulated workers running the sharing service with fault tolerance.

    Args:
        delivery_backend: Preferred backend spec for universal + delivery
            transcodes (rung 0 of its degradation ladder).
        popular_backend: Preferred backend spec for Popular re-transcodes.
        config: Farm robustness policy.
        service_config: Sharing-service policy knobs.
        cost_model: Unit prices for the cost report.
        fault_plan: Faults to inject; ``None`` runs the farm fault-free
            (the control arm of a chaos experiment).
        cache: Optional persistent transcode cache.  Wrapped *inside* the
            fault injector, so chaos still fires on every call while the
            underlying clean encodes are reused; the compute the cache
            avoided is surfaced through the cost report.
        memoize: Keep an in-process memo of completed transcodes (same
            content-addressed keys as the cache, no disk).  Like the
            cache, the memo sits inside the fault injector and the time
            scaler, so the robustness stack runs on every call while
            identical encodes are replayed — the traffic simulator's way
            of serving thousands of requests over a small catalog.
    """

    def __init__(
        self,
        delivery_backend: str = "x264:medium",
        popular_backend: str = "x264:veryslow",
        config: Optional[FarmConfig] = None,
        service_config: Optional[ServiceConfig] = None,
        cost_model: Optional[CostModel] = None,
        fault_plan: Optional[FaultPlan] = None,
        cache: Optional["TranscodeCache"] = None,
        memoize: bool = False,
    ) -> None:
        self.config = config or FarmConfig()
        self.fault_plan = fault_plan
        self.cache = cache
        self._cache_stats_before: Optional["CacheStats"] = (
            cache.stats.copy() if cache is not None else None
        )
        self.clock = SimClock()
        self.report = RobustnessReport()
        self.costs = CostReport(model=cost_model or CostModel())
        self._memoize = memoize
        self.pool: Dict[str, Transcoder] = {}
        self.breakers: Dict[str, CircuitBreaker] = {}
        # Every resilient adapter, keyed by its ladder's starting rung.
        self._adapters: Dict[str, ResilientTranscoder] = {}
        self._delivery = self._job_adapter(delivery_backend)
        self._popular = self._job_adapter(popular_backend)
        self.service = _FarmService(
            farm=self,
            delivery_backend=self._delivery,
            popular_backend=self._popular,
            config=service_config,
        )
        self._workers = [0.0] * self.config.workers

    def _make_backend(self, spec: str) -> Transcoder:
        """One backend under the farm's wrapper stack -- assembled here only.

        Innermost first: **cache** (disk) and **memo** (in-process) replay
        the clean encode, so they must sit below everything that differs
        per call; **scale** then stretches ``seconds`` to the represented
        resolution; **fault** is outermost, so chaos fires on every call,
        hit or miss, and a straggler multiplies the already-scaled time.
        Results are values: scale and fault derive new ones, which is what
        lets the memo hand one stored object to every caller.
        """
        backend = get_transcoder(spec)
        if self.cache is not None:
            backend = self.cache.wrap(backend)
        if self._memoize:
            from repro.exec.cache import CachingTranscoder, MemoStore

            backend = CachingTranscoder(backend, MemoStore())
        if self.config.time_scale != 1.0:
            backend = ScaledTranscoder(backend, self.config.time_scale)
        if self.fault_plan is not None:
            backend = FaultyTranscoder(backend, self.fault_plan, key=spec)
        return backend

    def _ensure_spec(self, spec: str) -> None:
        """Admit ``spec`` (and its breaker) into the shared pool."""
        if spec in self.pool:
            return
        self.pool[spec] = self._make_backend(spec)
        self.breakers[spec] = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
            half_open_probes=self.config.breaker_half_open_probes,
        )

    def _job_adapter(self, spec: str) -> ResilientTranscoder:
        """The resilient adapter whose ladder starts at ``spec``.

        Every adapter shares the farm-wide pool, breakers and ledger, so
        a scheduler-chosen rung sees the same circuit state and fault
        plan as the configured delivery and Popular backends; only the
        ladder's starting rung differs.
        """
        adapter = self._adapters.get(spec)
        if adapter is None:
            ladder = degradation_ladder(
                spec,
                self.config.preset_fallbacks,
                self.config.hardware_fallback,
            )
            for rung in ladder:
                self._ensure_spec(rung)
            adapter = self._adapters[spec] = ResilientTranscoder(
                ladder=ladder,
                pool=self.pool,
                breakers=self.breakers,
                clock=self.clock,
                retry=self.config.retry,
                report=self.report,
                config=self.config,
                costs=self.costs,
            )
        return adapter

    @property
    def catalog(self) -> Dict[str, VideoRecord]:
        return self.service.catalog

    # -- ingest ---------------------------------------------------------------

    def upload(self, video: Video, live: bool = False) -> Optional[VideoRecord]:
        """Ingest one video on the least-busy worker.

        Returns the catalog record, or ``None`` if the job exhausted its
        ladder and was dead-lettered (the farm never raises for a fault).
        """
        worker = min(range(len(self._workers)), key=self._workers.__getitem__)
        self.clock.seek(self._workers[worker])
        self.report.jobs_total += 1
        scenario = Scenario.LIVE if live else Scenario.VOD
        self._delivery.set_budget(self.config.deadlines.budget_s(video, scenario))
        try:
            record = self.service.upload(video, live=live)
            self.report.jobs_completed += 1
            return record
        except FarmJobError as error:
            self.dead_letter(video.name, "upload", error.reason)
            return None
        finally:
            self._workers[worker] = self.clock.now

    def upload_all(
        self, videos: Sequence[Video], live: bool = False
    ) -> List[VideoRecord]:
        """Upload a batch; returns the records that completed."""
        records = [self.upload(video, live=live) for video in videos]
        return [record for record in records if record is not None]

    # -- externally-driven job streams ----------------------------------------

    #: Bitrate operating point for rate-controlled traffic jobs, in bits
    #: per pixel-second — scaled by each clip's pixel rate so every title
    #: gets a comparable target regardless of its stand-in geometry.
    JOB_BITS_PER_PIXEL_SECOND = 0.15
    #: Floor below which a bitrate target is not meaningful for the codec.
    JOB_MIN_BITRATE_BPS = 1000.0

    def job_rate(self, video: Video, scenario: Scenario) -> RateSpec:
        """The rate specification a traffic job runs under.

        Upload jobs normalize at the service's constant-quality point;
        Live jobs are single-pass rate-controlled (no second pass inside
        a real-time budget); VOD and Popular jobs afford two-pass.
        """
        if scenario is Scenario.UPLOAD:
            return RateSpec.for_crf(self.service.config.upload_crf)
        target = max(
            self.JOB_BITS_PER_PIXEL_SECOND * video.frame_pixels * video.fps,
            self.JOB_MIN_BITRATE_BPS,
        )
        return RateSpec.for_bitrate(target, two_pass=not scenario.realtime)

    def execute_job(
        self,
        video: Video,
        scenario: Scenario,
        at_s: float,
        job: Optional[str] = None,
        rate: Optional[RateSpec] = None,
        spec: Optional[str] = None,
        budget_s: Optional[float] = None,
        predicted_s: float = 0.0,
    ) -> JobTiming:
        """Run one externally-scheduled transcode starting at ``at_s``.

        This is the entry point for job streams driven from above the
        farm (the traffic simulator): the caller owns worker placement
        and queueing, the farm owns the robustness stack.  The clock is
        seeked to ``at_s`` (the worker's dispatch time), the job runs
        through the full retry/breaker/degradation ladder with its
        scenario's deadline budget, and the timing of whatever happened
        comes back as a :class:`JobTiming`.  A job that exhausts its
        ladder is dead-lettered, never raised.

        A deadline scheduler steers the job with ``spec`` (the ladder's
        starting rung, sharing the farm-wide pool and breakers),
        ``budget_s`` (e.g. the *remaining* deadline budget after queue
        wait, instead of the scenario's full budget), and
        ``predicted_s`` (recorded on the timing for error accounting).
        Successful compute is booked into the cost report here; wasted
        attempts are booked inside the resilient adapter either way.
        """
        label = job if job is not None else video.name
        self.clock.seek(at_s)
        self.report.jobs_total += 1
        if spec is not None:
            adapter = self._job_adapter(spec)
        else:
            adapter = (
                self._popular if scenario is Scenario.POPULAR else self._delivery
            )
        adapter.set_budget(
            budget_s
            if budget_s is not None
            else self.config.deadlines.budget_s(video, scenario)
        )
        rate_spec = rate if rate is not None else self.job_rate(video, scenario)
        try:
            result = adapter.transcode(video, rate_spec)
        except FarmJobError as error:
            completed, reason = False, error.reason
            self.dead_letter(label, "job", reason)
        else:
            completed, reason = True, ""
            self.costs.add_compute(result.seconds)
            self.report.jobs_completed += 1
        return JobTiming(
            job=label,
            scenario=scenario,
            started_s=at_s,
            finished_s=self.clock.now,
            completed=completed,
            reason=reason,
            spec=adapter.ladder[0],
            predicted_s=predicted_s,
        )

    def dead_letter(self, job: str, stage: str, reason: str) -> None:
        """File a dead letter in the one queue replayable failures live in.

        The farm files its own here (a job that exhausted its ladder).
        The fleet layer above files the jobs *it* gave up on, when a
        request exhausts its redelivery budget: the farm never saw the
        final attempt fail (the worker died silently), so the give-up is
        recorded with ``stage="fleet"`` and the attempt metadata in
        ``reason``.
        """
        self.report.dead_letters.append(
            DeadLetter(job=job, stage=stage, reason=reason)
        )

    # -- viewing --------------------------------------------------------------

    def serve_views(self, views_by_name: Dict[str, int]) -> List[str]:
        """Serve playbacks; failed promotions dead-letter, views survive."""
        return self.service.serve_views(views_by_name)

    def simulate_views(self, total_views: int, seed: int = 0) -> List[str]:
        """Draw views from the popularity model over the catalog."""
        return self.service.simulate_views(total_views, seed=seed)

    # -- reporting ------------------------------------------------------------

    def finalize(self) -> RobustnessReport:
        """Snapshot breaker states and timing into the report."""
        report = self.report
        report.makespan_s = max(self._workers + [self.clock.now])
        report.breaker_states = {
            spec: breaker.state.value for spec, breaker in self.breakers.items()
        }
        report.breaker_failures = {
            spec: breaker.consecutive_failures
            for spec, breaker in self.breakers.items()
        }
        report.injected = {
            spec: backend.injected
            for spec, backend in self.pool.items()
            if isinstance(backend, FaultyTranscoder)
        }
        if self.cache is not None:
            self.costs.cache = self.cache.stats.since(
                self._cache_stats_before
            )
        return report

    def breaker_state(self, spec: str) -> BreakerState:
        """Current breaker state for one backend spec."""
        return self.breakers[spec].state
