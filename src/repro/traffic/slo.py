"""SLO accounting: every request's lifecycle, rendered byte-stably.

A traffic experiment is only as good as its ledger.  Every request that
enters the simulator ends in exactly one of five states — completed,
shed at admission, timed out in queue, backpressure-exhausted, or
dead-lettered by the farm — and this module folds those lifecycles into
per-scenario latency distributions (p50/p95/p99 queue wait and
end-to-end), SLO violation counts, the autoscaler's event log, and fleet
utilization.

Like :class:`~repro.pipeline.farm.RobustnessReport`, the text rendering
uses fixed precision and fixed ordering, so two runs under the same seed
produce byte-identical reports; ``to_json()`` is the machine-stable twin
(the :mod:`repro.record` format: a ledger's JSON is its dataclass
fields) whose SHA-256 ``digest()`` is what CI pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

from repro.record import jsonable, sha256_hex, stable_json
from repro.traffic.autoscaler import ScaleEvent

__all__ = [
    "FleetStats",
    "LatencySummary",
    "PredictionStats",
    "SLOReport",
    "ScenarioStats",
    "chaos_bench_dict",
    "percentile",
    "sched_bench_dict",
]

#: Fixed scenario ordering for all renderings.
SCENARIO_ORDER = ("upload", "live", "vod")


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    Returns 0.0 for an empty sample set — reports render "no data" as
    zeros rather than NaN so their text stays byte-stable.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if q == 0.0:
        return ordered[0]
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


@dataclass(frozen=True)
class LatencySummary:
    """A latency distribution, reduced to the quantiles SLOs quote."""

    count: int = 0
    p50_s: float = 0.0
    p95_s: float = 0.0
    p99_s: float = 0.0
    mean_s: float = 0.0
    max_s: float = 0.0

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencySummary":
        if not samples:
            return cls()
        return cls(
            count=len(samples),
            p50_s=percentile(samples, 50.0),
            p95_s=percentile(samples, 95.0),
            p99_s=percentile(samples, 99.0),
            mean_s=sum(samples) / len(samples),
            max_s=max(samples),
        )

    def to_line(self) -> str:
        return (
            f"p50={self.p50_s:.6f}s p95={self.p95_s:.6f}s "
            f"p99={self.p99_s:.6f}s max={self.max_s:.6f}s"
        )


@dataclass(frozen=True)
class PredictionStats:
    """How well service-time estimates matched what jobs actually cost.

    Both simulator arms produce these: the EWMA arm grades its
    estimator, the predictor arm grades the committed coefficients, so
    ``BENCH_sched.json`` can compare them on equal footing.

    Attributes:
        count: Completed jobs with a recorded (estimate, actual) pair.
        mape: Mean absolute percentage error of the estimates.
        p99_overrun_s: p99 of ``actual - estimate`` where positive --
            how badly under-estimates blow a deadline plan.
        p99_underrun_s: p99 of ``estimate - actual`` where positive --
            capacity an over-estimate would needlessly shed.
    """

    count: int = 0
    mape: float = 0.0
    p99_overrun_s: float = 0.0
    p99_underrun_s: float = 0.0

    @classmethod
    def from_samples(
        cls, samples: Sequence[Sequence[float]]
    ) -> "PredictionStats":
        """Reduce ``(estimate_s, actual_s)`` pairs to the summary."""
        if not samples:
            return cls()
        errors = [
            abs(predicted - actual) / actual
            for predicted, actual in samples
            if actual > 0.0
        ]
        overruns = [max(actual - predicted, 0.0) for predicted, actual in samples]
        underruns = [max(predicted - actual, 0.0) for predicted, actual in samples]
        return cls(
            count=len(samples),
            mape=sum(errors) / len(errors) if errors else 0.0,
            p99_overrun_s=percentile(overruns, 99.0),
            p99_underrun_s=percentile(underruns, 99.0),
        )

    def to_line(self) -> str:
        return (
            f"n={self.count} mape={self.mape:.6f} "
            f"p99_overrun={self.p99_overrun_s:.6f}s "
            f"p99_underrun={self.p99_underrun_s:.6f}s"
        )


@dataclass(frozen=True)
class FleetStats:
    """What chaos did to the fleet, and what recovery bought back.

    Produced by the simulator from
    :class:`repro.traffic.fleet.FleetState`; all-zero (``availability``
    1.0) when no fault plan is configured.  ``reclaimed_busy`` is an
    audit counter for the graceful scale-down invariant — a replica
    with an in-flight job must never be reclaimed — and any nonzero
    value is a bug, asserted on in CI.
    """

    workers_spawned: int = 0
    workers_lost: int = 0
    crashes: int = 0
    preemptions: int = 0
    outage_kills: int = 0
    outages: int = 0
    interruptions: int = 0
    redeliveries: int = 0
    redelivery_dead_letters: int = 0
    hedges_launched: int = 0
    hedge_wins: int = 0
    hedge_cancelled: int = 0
    reclaimed_busy: int = 0
    availability: float = 1.0
    time_to_recover: LatencySummary = field(default_factory=LatencySummary)
    wasted_compute_s: float = 0.0
    wasted_cost_usd: float = 0.0

    def to_lines(self) -> List[str]:
        return [
            f"    workers:         spawned={self.workers_spawned} "
            f"lost={self.workers_lost} (crash={self.crashes} "
            f"preempt={self.preemptions} outage={self.outage_kills}) "
            f"outages={self.outages}",
            f"    recovery:        interruptions={self.interruptions} "
            f"redeliveries={self.redeliveries} "
            f"redelivery-dead-letters={self.redelivery_dead_letters}",
            f"    hedging:         launched={self.hedges_launched} "
            f"wins={self.hedge_wins} cancelled={self.hedge_cancelled}",
            f"    availability:    {self.availability:.6f} "
            f"(reclaimed-busy={self.reclaimed_busy})",
            f"    time-to-recover: {self.time_to_recover.to_line()}",
            f"    waste:           compute={self.wasted_compute_s:.6f}s "
            f"cost=${self.wasted_cost_usd:.9f}",
        ]


@dataclass
class ScenarioStats:
    """One traffic class's ledger.

    Every arrival is counted once under ``arrived``; retries of the same
    logical request show up in ``backpressure_retries`` instead.  The
    terminal states partition ``arrived``:
    ``completed + shed + timed_out + dead_lettered == arrived`` once the
    run has drained.  The chaos counters (``redelivered``,
    ``hedge_cancelled``, ``preempted_drained``) describe *journeys*, not
    destinations — a redelivered request still terminates in exactly one
    of the four buckets — so the partition holds under chaos unchanged.
    """

    scenario: str
    arrived: int = 0
    admitted: int = 0
    completed: int = 0
    shed: int = 0
    shed_deadline: int = 0
    shed_queue_full: int = 0
    timed_out: int = 0
    dead_lettered: int = 0
    backpressure_retries: int = 0
    slo_violations: int = 0
    deadline_hits: int = 0
    redelivered: int = 0
    hedge_cancelled: int = 0
    preempted_drained: int = 0
    queue_wait: LatencySummary = field(default_factory=LatencySummary)
    e2e: LatencySummary = field(default_factory=LatencySummary)
    prediction: PredictionStats = field(default_factory=PredictionStats)
    scheduled_specs: Dict[str, int] = field(default_factory=dict)

    @property
    def deadline_hit_rate(self) -> float:
        """Arrivals that completed inside their deadline budget.

        Normalized by *arrivals*, not completions: a shed or timed-out
        request is a missed deadline from the client's point of view,
        so admission decisions cannot launder the rate.
        """
        if self.arrived == 0:
            return 0.0
        return self.deadline_hits / self.arrived

    def as_dict(self) -> Dict[str, object]:
        """The fields, keyed by scenario one level up, plus the hit rate."""
        record = jsonable(self)
        del record["scenario"]
        record["deadline_hit_rate"] = jsonable(self.deadline_hit_rate)
        return record


@dataclass
class SLOReport:
    """Everything one traffic experiment observed.

    ``to_text()`` renders with fixed precision and fixed scenario order;
    ``to_json()`` is its machine twin.  Two runs under the same seed and
    config produce byte-identical output from both.
    """

    seed: int = 0
    duration_s: float = 0.0
    makespan_s: float = 0.0
    scenarios: Dict[str, ScenarioStats] = field(default_factory=dict)
    scale_events: List[ScaleEvent] = field(default_factory=list)
    min_workers: int = 0
    max_workers: int = 0
    peak_workers: int = 0
    utilization: float = 0.0
    busy_worker_s: float = 0.0
    catalog_size: int = 0
    predictor_enabled: bool = False
    compute_hours: float = 0.0
    total_cost_usd: float = 0.0
    chaos_profile: str = ""
    fleet: Optional[FleetStats] = None

    # -- aggregates -----------------------------------------------------------

    def _total(self, attr: str) -> int:
        return sum(getattr(stats, attr) for stats in self.scenarios.values())

    @property
    def arrived(self) -> int:
        return self._total("arrived")

    @property
    def completed(self) -> int:
        return self._total("completed")

    @property
    def shed(self) -> int:
        return self._total("shed")

    @property
    def timed_out(self) -> int:
        return self._total("timed_out")

    @property
    def dead_lettered(self) -> int:
        return self._total("dead_lettered")

    @property
    def slo_violations(self) -> int:
        return self._total("slo_violations")

    @property
    def offered_rps(self) -> float:
        return self.arrived / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def completed_rps(self) -> float:
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def shed_fraction(self) -> float:
        """Requests rejected (at admission or in queue) per arrival."""
        if self.arrived == 0:
            return 0.0
        return (self.shed + self.timed_out) / self.arrived

    @property
    def deadline_hit_rate(self) -> float:
        """All-scenario deadline hits per arrival — the chaos headline.

        Like the per-scenario rate, normalized by arrivals so losing
        requests to crashes or sheds cannot launder the number.
        """
        if self.arrived == 0:
            return 0.0
        return self._total("deadline_hits") / self.arrived

    # -- renderings -----------------------------------------------------------

    def _ordered(self) -> List[ScenarioStats]:
        ordered = [
            self.scenarios[name]
            for name in SCENARIO_ORDER
            if name in self.scenarios
        ]
        for name in sorted(self.scenarios):
            if name not in SCENARIO_ORDER:
                ordered.append(self.scenarios[name])
        return ordered

    def to_text(self) -> str:
        lines = [
            "SLOReport",
            f"  seed:            {self.seed}",
            f"  duration:        {self.duration_s:.6f} s offered, "
            f"makespan {self.makespan_s:.6f} s",
            f"  requests:        {self.arrived} arrived "
            f"({self.offered_rps:.6f} rps), {self.completed} completed "
            f"({self.completed_rps:.6f} rps)",
            f"  rejected:        {self.shed} shed, {self.timed_out} timed out "
            f"in queue, {self.dead_lettered} dead-lettered "
            f"(shed fraction {self.shed_fraction:.6f})",
            f"  slo violations:  {self.slo_violations}",
            f"  workers:         min={self.min_workers} max={self.max_workers} "
            f"peak={self.peak_workers} utilization={self.utilization:.6f} "
            f"busy={self.busy_worker_s:.6f}s",
            f"  catalog:         {self.catalog_size} titles",
            f"  scheduler:       "
            f"{'predictor' if self.predictor_enabled else 'ewma'}",
            f"  cost:            compute={self.compute_hours:.9f}h "
            f"total=${self.total_cost_usd:.9f}",
        ]
        if self.fleet is not None:
            lines.append(
                f"  chaos:           "
                f"profile={self.chaos_profile or 'custom'} "
                f"hit-rate={self.deadline_hit_rate:.6f}"
            )
            lines.append("  fleet:")
            lines.extend(self.fleet.to_lines())
        for stats in self._ordered():
            lines.append(f"  {stats.scenario}:")
            lines.append(
                f"    arrived={stats.arrived} admitted={stats.admitted} "
                f"completed={stats.completed} dead-lettered={stats.dead_lettered}"
            )
            lines.append(
                f"    shed={stats.shed} (deadline={stats.shed_deadline} "
                f"queue-full={stats.shed_queue_full}) "
                f"timed-out={stats.timed_out} "
                f"backpressure-retries={stats.backpressure_retries}"
            )
            lines.append(f"    queue wait:      {stats.queue_wait.to_line()}")
            lines.append(f"    end-to-end:      {stats.e2e.to_line()}")
            lines.append(f"    slo violations:  {stats.slo_violations}")
            lines.append(
                f"    deadline hits:   {stats.deadline_hits} "
                f"(rate {stats.deadline_hit_rate:.6f})"
            )
            lines.append(f"    prediction:      {stats.prediction.to_line()}")
            if self.fleet is not None:
                lines.append(
                    f"    chaos:           redelivered={stats.redelivered} "
                    f"hedge-cancelled={stats.hedge_cancelled} "
                    f"preempted-drained={stats.preempted_drained}"
                )
            if stats.scheduled_specs:
                rendered = " ".join(
                    f"{spec}={stats.scheduled_specs[spec]}"
                    for spec in sorted(stats.scheduled_specs)
                )
                lines.append(f"    scheduled specs: {rendered}")
        lines.append(f"  autoscaler events ({len(self.scale_events)}):")
        for event in self.scale_events:
            lines.append(f"    {event.to_line()}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return jsonable(
            {
                "version": 3,
                "seed": self.seed,
                "chaos_profile": self.chaos_profile,
                "deadline_hit_rate": self.deadline_hit_rate,
                "fleet": self.fleet,
                "predictor_enabled": self.predictor_enabled,
                "compute_hours": self.compute_hours,
                "total_cost_usd": self.total_cost_usd,
                "duration_s": self.duration_s,
                "makespan_s": self.makespan_s,
                "arrived": self.arrived,
                "completed": self.completed,
                "shed": self.shed,
                "timed_out": self.timed_out,
                "dead_lettered": self.dead_lettered,
                "slo_violations": self.slo_violations,
                "offered_rps": self.offered_rps,
                "completed_rps": self.completed_rps,
                "shed_fraction": self.shed_fraction,
                "workers": {
                    "min": self.min_workers,
                    "max": self.max_workers,
                    "peak": self.peak_workers,
                    "utilization": self.utilization,
                    "busy_s": self.busy_worker_s,
                },
                "catalog_size": self.catalog_size,
                "scenarios": {
                    stats.scenario: stats.as_dict() for stats in self._ordered()
                },
                "scale_events": self.scale_events,
            }
        )

    def to_json(self) -> str:
        return stable_json(self.as_dict())

    def digest(self) -> str:
        """SHA-256 of the JSON rendering — the byte-stability fingerprint."""
        return sha256_hex(self.to_json())

    @property
    def _live(self) -> ScenarioStats:
        """The Live ledger, all-zero when the run had no Live class."""
        return self.scenarios.get("live") or ScenarioStats("live")

    @property
    def _fleet(self) -> FleetStats:
        """The fleet ledger, all-zero (availability 1.0) without a plan."""
        return self.fleet or FleetStats()

    def bench_dict(self) -> Dict[str, object]:
        """The compact benchmark record CI appends to the perf trajectory.

        Follows the structured ``BenchmarkResult`` idiom (SNIPPETS.md
        Snippet 1): a name, the parameters that produced the number, and
        the metrics worth tracking across PRs.
        """
        live = self._live
        return jsonable(
            {
                "name": "traffic-slo",
                "version": 3,
                "parameters": {
                    "seed": self.seed,
                    "duration_s": self.duration_s,
                    "catalog_size": self.catalog_size,
                    "max_workers": self.max_workers,
                    "min_workers": self.min_workers,
                    "predictor": self.predictor_enabled,
                },
                "metrics": {
                    "throughput_rps": self.completed_rps,
                    "offered_rps": self.offered_rps,
                    "shed_fraction": self.shed_fraction,
                    "utilization": self.utilization,
                    "live_p99_e2e_s": live.e2e.p99_s,
                    "live_deadline_hit_rate": live.deadline_hit_rate,
                    "live_prediction_mape": live.prediction.mape,
                    "slo_violations": self.slo_violations,
                    "total_cost_usd": self.total_cost_usd,
                    "availability": self._fleet.availability,
                },
                "digest": self.digest(),
            }
        )


#: Per-arm metrics of ``BENCH_sched.json``: key -> attribute path on a report.
_SCHED_ARM = {
    "live_deadline_hit_rate": "_live.deadline_hit_rate",
    "live_deadline_hits": "_live.deadline_hits",
    "live_arrived": "_live.arrived",
    "live_p99_e2e_s": "_live.e2e.p99_s",
    "live_prediction_mape": "_live.prediction.mape",
    "shed_fraction": "shed_fraction",
    "slo_violations": "slo_violations",
    "compute_hours": "compute_hours",
    "total_cost_usd": "total_cost_usd",
}

#: Per-arm metrics of ``BENCH_chaos.json``.
_CHAOS_ARM = {
    "deadline_hit_rate": "deadline_hit_rate",
    "arrived": "arrived",
    "completed": "completed",
    "dead_lettered": "dead_lettered",
    "availability": "_fleet.availability",
    "interruptions": "_fleet.interruptions",
    "redeliveries": "_fleet.redeliveries",
    "hedge_wins": "_fleet.hedge_wins",
    "hedge_cancelled": "_fleet.hedge_cancelled",
    "workers_lost": "_fleet.workers_lost",
    "reclaimed_busy": "_fleet.reclaimed_busy",
    "ttr_p99_s": "_fleet.time_to_recover.p99_s",
    "wasted_cost_usd": "_fleet.wasted_cost_usd",
    "total_cost_usd": "total_cost_usd",
}


def _compare_record(
    name: str,
    arms: Dict[str, SLOReport],
    arm_metrics: Dict[str, str],
    deltas: Dict[str, float],
    **parameters: object,
) -> Dict[str, object]:
    """A multi-arm comparison record: the same metrics read off every arm.

    All arms must come from one seed and one arrival window, or their
    difference measures the inputs rather than the policy under test.
    """
    first = next(iter(arms.values()))
    if any(
        (report.seed, report.duration_s) != (first.seed, first.duration_s)
        for report in arms.values()
    ):
        raise ValueError(
            f"{name} needs every arm at the same seed and duration"
        )
    return jsonable(
        {
            "name": name,
            "version": 1,
            "parameters": {
                **parameters,
                "seed": first.seed,
                "duration_s": first.duration_s,
                "catalog_size": first.catalog_size,
            },
            "arms": {
                arm: {
                    **{
                        key: attrgetter(path)(report)
                        for key, path in arm_metrics.items()
                    },
                    "digest": report.digest(),
                }
                for arm, report in arms.items()
            },
            "deltas": deltas,
        }
    )


def sched_bench_dict(ewma: SLOReport, predictor: SLOReport) -> Dict[str, object]:
    """The ``BENCH_sched.json`` record: both scheduling arms, one seed.

    CI pins this file byte-for-byte and additionally asserts the deltas:
    the predictor arm must hit at least as many Live deadlines as the
    EWMA arm at equal or lower total cost (the acceptance criterion of
    the deadline-aware-scheduling work).
    """
    return _compare_record(
        "sched-compare",
        {"ewma": ewma, "predictor": predictor},
        _SCHED_ARM,
        {
            "live_hit_rate_improvement": predictor._live.deadline_hit_rate
            - ewma._live.deadline_hit_rate,
            "cost_delta_usd": predictor.total_cost_usd - ewma.total_cost_usd,
        },
    )


def chaos_bench_dict(
    profile: str,
    baseline: SLOReport,
    naive: SLOReport,
    recovery: SLOReport,
) -> Dict[str, object]:
    """The ``BENCH_chaos.json`` record: one chaos profile, three arms.

    ``baseline`` is the fault-free run, ``naive`` the same faults with
    no handling (single delivery, no hedge, ignored preemption notices,
    replacement only at the next autoscaler poll), ``recovery`` the full
    policy.  CI pins the file byte-for-byte and asserts the deltas: the
    recovery arm must beat the naive arm on deadline-hit rate *and*
    availability, at a bounded extra compute cost.
    """
    return _compare_record(
        "chaos-compare",
        {"baseline": baseline, "naive": naive, "recovery": recovery},
        _CHAOS_ARM,
        {
            "hit_rate_recovery_vs_naive": recovery.deadline_hit_rate
            - naive.deadline_hit_rate,
            "availability_recovery_vs_naive": recovery._fleet.availability
            - naive._fleet.availability,
            "cost_recovery_vs_naive_usd": recovery.total_cost_usd
            - naive.total_cost_usd,
            "hit_rate_chaos_cost": baseline.deadline_hit_rate
            - recovery.deadline_hit_rate,
        },
        profile=profile,
    )
