"""The sharing service of Figure 3, run by a fault-tolerant transcoding farm.

:class:`TranscodeFarm` *is* the service: it owns the catalog, runs every
upload's universal and delivery transcodes on the least-busy of N
simulated workers, serves views, and re-transcodes a video once its
views cross the popularity threshold.  Every one of those transcodes
walks a degradation ladder (:meth:`TranscodeFarm._run_ladder`) through
the robustness stack of :mod:`repro.robust`:

* retries with capped, jittered backoff; per-backend circuit breakers;
  a per-call deadline budget (Live's real-time constraint is a hard
  deadline: a retry that would blow the budget is never attempted); and
  the graceful degradation ladder down to faster presets and finally
  the hardware model, which has no two-pass mode and so runs single
  pass;
* compute wasted on crashed and corrupted attempts is booked into the
  farm's :class:`~repro.pipeline.costs.CostReport` — chaos is not free,
  and the cost report shows exactly what it cost;
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
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core.scenarios import Scenario
from repro.corpus.popularity import PopularityModel
from repro.encoders.base import (
    RateSpec,
    ScaledTranscoder,
    Transcoder,
    TranscodeResult,
)
from repro.encoders.registry import HARDWARE_BACKENDS, get_transcoder
from repro.pipeline.costs import CostModel, CostReport
from repro.pipeline.service import ServiceConfig, VideoRecord
from repro.robust.breaker import CircuitBreaker
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


def _adapt_rate(spec: str, rate: RateSpec) -> RateSpec:
    """Hardware rungs have no two-pass mode; fall back to single pass."""
    backend = spec.partition(":")[0]
    if backend in HARDWARE_BACKENDS and rate.two_pass:
        return RateSpec.for_bitrate(rate.bitrate_bps, two_pass=False)
    return rate


class TranscodeFarm:
    """The sharing service, run by N simulated workers with fault tolerance.

    Uploads take the universal and delivery transcodes on the least-busy
    worker, views egress each video's delivery copy, and crossing the
    popularity threshold earns the Popular re-transcode.  Each transcode
    walks the degradation ladder that starts at its configured backend;
    one that exhausts it is dead-lettered, never raised.

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
        self.service_config = service_config or ServiceConfig()
        self.fault_plan = fault_plan
        self.cache = cache
        self._cache_stats_before: Optional["CacheStats"] = (
            cache.stats.copy() if cache is not None else None
        )
        self.clock = SimClock()
        self.report = RobustnessReport()
        self.costs = CostReport(model=cost_model or CostModel())
        self.catalog: Dict[str, VideoRecord] = {}
        self._memoize = memoize
        self.pool: Dict[str, Transcoder] = {}
        self.breakers: Dict[str, CircuitBreaker] = {}
        # Every degradation ladder, keyed by its starting rung.
        self._ladders: Dict[str, List[str]] = {}
        self.delivery_backend = delivery_backend
        self.popular_backend = popular_backend
        # Admitted up front: a bad spec fails here, and the report lists
        # both ladders' breakers even when no Popular job ever runs.
        self._ladder(delivery_backend)
        self._ladder(popular_backend)
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

    def _ladder(self, spec: str) -> List[str]:
        """The degradation ladder starting at ``spec``, every rung admitted.

        Each rung's backend and breaker join the farm-wide pool on first
        use, so a scheduler-chosen rung sees the same circuit state and
        fault plan as the configured delivery and Popular backends; only
        the ladder's starting rung differs.
        """
        ladder = self._ladders.get(spec)
        if ladder is None:
            ladder = degradation_ladder(
                spec,
                self.config.preset_fallbacks,
                self.config.hardware_fallback,
            )
            for rung in ladder:
                if rung not in self.pool:
                    self.pool[rung] = self._make_backend(rung)
                    self.breakers[rung] = CircuitBreaker(
                        failure_threshold=self.config.breaker_failure_threshold,
                        cooldown_s=self.config.breaker_cooldown_s,
                        half_open_probes=self.config.breaker_half_open_probes,
                    )
            self._ladders[spec] = ladder
        return ladder

    # -- the resilient call ----------------------------------------------------

    def _book_waste(self, seconds: float) -> None:
        self.report.wasted_compute_s += seconds
        self.costs.add_compute(seconds)

    def _run_ladder(
        self,
        spec: str,
        video: Video,
        rate: RateSpec,
        budget_s: Optional[float],
    ) -> TranscodeResult:
        """Transcode ``video`` down the ladder that starts at ``spec``.

        Rung by rung: per-rung retries, one deadline budget of
        ``budget_s`` shared across the whole call, and wasted compute
        booked into the cost report.  The successful attempt's compute
        is the caller's to book.

        Raises:
            FarmJobError: every rung failed.
        """
        ladder = self._ladder(spec)
        report, clock, retry = self.report, self.clock, self.config.retry
        budget = DeadlineBudget(clock, budget_s)
        last_reason = "no rung admitted the job"
        for index, rung in enumerate(ladder):
            last_rung = index == len(ladder) - 1
            breaker = self.breakers[rung]
            # The final rung is the last resort: it runs even through an
            # open breaker, because refusing it means losing the job.
            if not last_rung and not breaker.allow(clock.now):
                self._downgrade(video.name, ladder, index, "breaker-open")
                last_reason = f"{rung}: circuit open"
                continue
            transcoder = self.pool[rung]
            adapted = _adapt_rate(rung, rate)
            failures = 0
            while True:
                report.attempts += 1
                try:
                    result = transcoder.transcode(video, adapted)
                except BackendOutage as fault:
                    clock.advance(self.config.outage_detect_s)
                    breaker.record_failure(clock.now)
                    report.outage_failures += 1
                    last_reason = str(fault)
                except TransientFault as fault:
                    clock.advance(fault.wasted_seconds)
                    self._book_waste(fault.wasted_seconds)
                    breaker.record_failure(clock.now)
                    report.transient_failures += 1
                    last_reason = str(fault)
                else:
                    clock.advance(result.seconds)
                    if result.quality_db < self.config.quality_floor_db:
                        # Corrupted output: the compute is spent, the
                        # bytes are garbage.
                        self._book_waste(result.seconds)
                        breaker.record_failure(clock.now)
                        report.corrupt_detected += 1
                        last_reason = (
                            f"{rung}: output quality "
                            f"{result.quality_db:.1f} dB below floor"
                        )
                    else:
                        breaker.record_success()
                        if budget.exceeded:
                            report.deadline_misses += 1
                        return result
                failures += 1
                if failures >= retry.max_attempts:
                    if not last_rung:
                        self._downgrade(
                            video.name, ladder, index, "retries-exhausted"
                        )
                    break
                delay = retry.backoff_s(failures, key=rung)
                if not budget.allows(delay):
                    report.deadline_retry_skips += 1
                    if not last_rung:
                        self._downgrade(video.name, ladder, index, "deadline")
                    break
                clock.advance(delay)
                report.retries += 1
        raise FarmJobError(video.name, last_reason)

    def _downgrade(
        self, job: str, ladder: List[str], index: int, reason: str
    ) -> None:
        """Record the fall from rung ``index`` to the next one."""
        self.report.downgrades.append(
            DowngradeEvent(
                job=job,
                from_spec=ladder[index],
                to_spec=ladder[index + 1],
                reason=reason,
            )
        )

    # -- ingest ---------------------------------------------------------------

    def _start_job(self) -> int:
        """Count a job and seek the clock to the least-busy worker's
        frontier; returns that worker, whose frontier the caller writes
        back once the job is over, finished or dead-lettered."""
        worker = min(range(len(self._workers)), key=self._workers.__getitem__)
        self.clock.seek(self._workers[worker])
        self.report.jobs_total += 1
        return worker

    def upload(self, video: Video, live: bool = False) -> Optional[VideoRecord]:
        """Ingest one video on the least-busy worker.

        The universal transcode normalizes the upload at the service's
        constant-quality point; the delivery transcode then targets a
        fraction of its bitrate, single pass for ``live`` and two-pass
        for VOD.  Returns the catalog record, or ``None`` if either
        transcode exhausted its ladder and the job was dead-lettered (the
        farm never raises for a fault).

        Raises:
            ValueError: the video is unnamed or already in the catalog;
                it takes no worker and is not counted as a job.
        """
        if not video.name:
            raise ValueError("uploads must be named")
        if video.name in self.catalog:
            raise ValueError(f"duplicate upload {video.name!r}")
        worker = self._start_job()
        cfg = self.service_config
        scenario = Scenario.LIVE if live else Scenario.VOD
        budget_s = self.config.deadlines.budget_s(video, scenario)
        try:
            universal = self._run_ladder(
                self.delivery_backend,
                video,
                RateSpec.for_crf(cfg.upload_crf),
                budget_s,
            )
            self.costs.add_compute(universal.seconds)
            target = max(universal.bitrate * cfg.vod_bitrate_scale, 1000.0)
            delivery = self._run_ladder(
                self.delivery_backend,
                universal.output,
                RateSpec.for_bitrate(target, two_pass=not live),
                budget_s,
            )
        except FarmJobError as error:
            self.dead_letter(video.name, "upload", error.reason)
            return None
        finally:
            self._workers[worker] = self.clock.now
        self.costs.add_compute(delivery.seconds)
        self.costs.add_storage(
            delivery.compressed_bytes, months=cfg.retention_months
        )
        record = VideoRecord(
            name=video.name,
            video=universal.output,
            delivery_bytes=delivery.compressed_bytes,
        )
        self.catalog[video.name] = record
        self.report.jobs_completed += 1
        return record

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
            return RateSpec.for_crf(self.service_config.upload_crf)
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
        attempts are booked inside the ladder walk either way.
        """
        label = job if job is not None else video.name
        if spec is None:
            spec = (
                self.popular_backend
                if scenario is Scenario.POPULAR
                else self.delivery_backend
            )
        self._ladder(spec)  # an unknown spec raises before the job counts
        self.clock.seek(at_s)
        self.report.jobs_total += 1
        if budget_s is None:
            budget_s = self.config.deadlines.budget_s(video, scenario)
        rate_spec = rate if rate is not None else self.job_rate(video, scenario)
        try:
            result = self._run_ladder(spec, video, rate_spec, budget_s)
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
            spec=spec,
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
        """Serve playbacks; returns names newly promoted to popular.

        Each view egresses the delivery copy.  Crossing the popularity
        threshold triggers the Popular re-transcode: smaller bytes for
        every later view, storage for one more replica, compute once.  A
        promotion that exhausts its ladder is dead-lettered and the video
        stays unpromoted (the next batch retries it); the views survive.

        The batch is validated up front: a negative count or unknown name
        rejects the whole request before any record is mutated or any cost
        is booked, so a bad entry cannot leave the catalog half-updated.
        """
        for name, views in views_by_name.items():
            if views < 0:
                raise ValueError(f"negative views for {name!r}")
            if name not in self.catalog:
                raise KeyError(f"unknown video {name!r}")
        promoted: List[str] = []
        for name, views in views_by_name.items():
            record = self.catalog[name]
            record.views += views
            egress = views * record.delivery_bytes
            record.egress_bytes += egress
            self.costs.add_egress(egress)
            if (
                not record.popular
                and record.views >= self.service_config.popular_threshold_views
                and self._promote(record)
            ):
                promoted.append(name)
        return promoted

    def _promote(self, record: VideoRecord) -> bool:
        """Run the Popular re-transcode; returns whether it succeeded.

        A promotion is a job like an upload: it runs on the least-busy
        worker and ends completed or dead-lettered.  Popular always
        affords two passes; a hardware rung runs single pass like every
        other.
        """
        target = max(
            record.delivery_bytes * 8.0 / record.video.duration * 0.9, 1000.0
        )
        worker = self._start_job()
        try:
            result = self._run_ladder(
                self.popular_backend,
                record.video,
                RateSpec.for_bitrate(target, two_pass=True),
                self.config.deadlines.budget_s(record.video, Scenario.POPULAR),
            )
        except FarmJobError as error:
            self.dead_letter(record.name, "promote", error.reason)
            return False
        finally:
            self._workers[worker] = self.clock.now
        self.report.jobs_completed += 1
        self.costs.add_compute(result.seconds)
        self.costs.add_storage(
            result.compressed_bytes, months=self.service_config.retention_months
        )
        if result.compressed_bytes < record.delivery_bytes:
            record.delivery_bytes = result.compressed_bytes
        record.popular = True
        return True

    def simulate_views(
        self,
        total_views: int,
        popularity: Optional[PopularityModel] = None,
        seed: int = 0,
    ) -> List[str]:
        """Draw ``total_views`` from a popularity model over the catalog.

        Videos are ranked by upload order; returns the promoted names.
        """
        if not self.catalog:
            raise ValueError("no videos uploaded")
        if total_views < 0:
            raise ValueError("total_views must be non-negative")
        names = list(self.catalog)
        model = popularity or PopularityModel()
        rng = np.random.default_rng(seed)
        ranks = model.sample_ranks(total_views, len(names), rng)
        counts = np.bincount(ranks - 1, minlength=len(names))
        return self.serve_views(
            {name: int(c) for name, c in zip(names, counts) if c}
        )

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
