"""Deadline-aware operating-point selection over the predictor.

The farm's degradation ladder is *reactive*: a job starts at the
configured preset and falls only after retries, breaker trips, or a
blown budget have already burned compute.  The scheduler is the
*proactive* twin from the transcoding-time-prediction literature
(PAPERS.md, arXiv 2312.05348): before the job runs, predict its time at
every candidate operating point and start it at the highest-quality one
whose prediction fits the deadline budget -- at minimum
:class:`~repro.pipeline.costs.CostModel` dollars among equal-quality
fits ("Where to Encode", arXiv 2106.06242).  The reactive ladder stays
underneath as the safety net for the cases prediction cannot see
(faults, breaker state).

Selection is a pure function of ``(features, rate, budget)``: quality
ranks are fixed by the preset ladder, predictions come from the
committed coefficients, and ties break lexicographically.  Determinism
of the traffic simulator is preserved by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from repro.codec.presets import PRESETS
from repro.core.scenarios import Scenario
from repro.encoders.base import RateSpec
from repro.encoders.registry import HARDWARE_BACKENDS
from repro.pipeline.costs import CostModel
from repro.predict.features import JobFeatures
from repro.predict.model import TranscodeTimePredictor, default_predictor
from repro.video.video import Video

__all__ = [
    "DEFAULT_CANDIDATES",
    "DeadlineScheduler",
    "ScheduleDecision",
    "quality_rank",
]

#: Default candidate ladder: the delivery degradation ladder's rungs,
#: best quality first.  Capped at the farm's configured delivery preset
#: (``x264:medium``) so the scheduler can only *recover* quality the
#: reactive ladder would have thrown away, never spend more than the
#: static configuration would.
DEFAULT_CANDIDATES = ("x264:medium", "x264:veryfast", "x264:ultrafast", "qsv")

#: Upload has no per-request deadline; its SLO is throughput.  A job is
#: sustainable when it transcodes faster than this multiple of realtime,
#: so the throughput target doubles as a per-job time budget.
DEFAULT_UPLOAD_FACTOR = 4.0

#: Preset ladder order, fastest first (PRESETS is an insertion-ordered
#: mapping; the tuple freezes the ranking).
_PRESET_ORDER = tuple(PRESETS)


def quality_rank(spec: str) -> int:
    """Compression-quality rank of a backend spec (higher is better).

    Software presets rank by ladder position (slower preset = better
    compression, Section 4.2); hardware backends rank below every
    software preset -- the paper's Section 5.3 trade, bitrate sacrificed
    for speed, makes them the quality floor.
    """
    backend, _, preset_name = spec.partition(":")
    if backend in HARDWARE_BACKENDS:
        return 0
    return 1 + _PRESET_ORDER.index(preset_name or "medium")


@dataclass(frozen=True)
class ScheduleDecision:
    """One scheduling choice, with the evidence it was made on.

    Attributes:
        spec: The chosen operating point (rung 0 of the job's ladder).
        predicted_s: Predicted service seconds at ``spec`` (already
            time-scaled to the simulation's clock).
        quality_rank: :func:`quality_rank` of the choice.
        fits_budget: Whether the prediction fit the budget; ``False``
            means nothing fit and this is the fastest-predicted rung.
        cost_usd: Predicted compute dollars at ``spec``.
    """

    spec: str
    predicted_s: float
    quality_rank: int
    fits_budget: bool
    cost_usd: float


class DeadlineScheduler:
    """Pick the best candidate whose predicted time fits the budget.

    Args:
        predictor: Trained models; defaults to the committed
            coefficients.
        candidates: Operating points to choose among, any order.
        cost_model: Prices for the cost tie-break.
        time_scale: Multiplier matching the farm's ``time_scale``, so
            predictions are compared against budgets on the same clock.
    """

    def __init__(
        self,
        predictor: Optional[TranscodeTimePredictor] = None,
        candidates: Sequence[str] = DEFAULT_CANDIDATES,
        cost_model: Optional[CostModel] = None,
        time_scale: float = 1.0,
    ) -> None:
        if not candidates:
            raise ValueError("the scheduler needs at least one candidate")
        if not math.isfinite(time_scale) or time_scale <= 0:
            raise ValueError(
                f"time scale must be positive and finite, got {time_scale}"
            )
        self.predictor = predictor if predictor is not None else default_predictor()
        self.candidates: Tuple[str, ...] = tuple(candidates)
        self.cost_model = cost_model or CostModel()
        self.time_scale = float(time_scale)
        for spec in self.candidates:
            quality_rank(spec)  # validate eagerly, not mid-simulation

    def budget_for(
        self, video: Video, scenario: Scenario, deadline_budget_s: float
    ) -> float:
        """The time budget a job of this scenario must fit.

        Live and batch scenarios bring their deadline budget; Upload
        substitutes its throughput target: sustained ingest must keep up
        with :data:`DEFAULT_UPLOAD_FACTOR` times realtime, so one job may
        spend at most that multiple of its duration.  Budgets are expressed on
        the same (unscaled) clock as :class:`DeadlinePolicy` budgets;
        only predictions carry the time scale.
        """
        if scenario is Scenario.UPLOAD:
            return video.duration * DEFAULT_UPLOAD_FACTOR
        return deadline_budget_s

    def choose(
        self,
        features: JobFeatures,
        rate: RateSpec,
        budget_s: float,
        measured_s: Optional[Mapping[str, float]] = None,
    ) -> ScheduleDecision:
        """The highest-quality candidate predicted to fit ``budget_s``.

        Ties at equal quality rank break toward lower predicted compute
        cost, then lexicographic spec name.  When no candidate fits, the
        fastest-predicted one is returned with ``fits_budget=False`` --
        the least-late option, exactly what the degradation ladder would
        converge to after burning budget on the rungs above it.

        ``measured_s`` maps candidate specs to *observed* service times
        (already on the scaled clock): the farm is deterministic, so a
        measurement of this exact job at this exact operating point
        supersedes the model -- the same known-trumps-estimated rule the
        admission estimator applies.
        """
        scored = []
        for spec in self.candidates:
            if measured_s is not None and spec in measured_s:
                predicted = measured_s[spec]
            elif self.predictor.can_predict(spec, rate):
                predicted = (
                    self.predictor.predict_seconds(spec, rate, features)
                    * self.time_scale
                )
            else:
                continue
            scored.append(
                ScheduleDecision(
                    spec=spec,
                    predicted_s=predicted,
                    quality_rank=quality_rank(spec),
                    fits_budget=predicted <= budget_s,
                    cost_usd=self.cost_model.compute_dollars(predicted),
                )
            )
        if not scored:
            raise ValueError(
                "no candidate has a trained model for this rate mode; "
                f"candidates={self.candidates}"
            )
        fitting = [d for d in scored if d.fits_budget]
        if fitting:
            return min(
                fitting,
                key=lambda d: (-d.quality_rank, d.cost_usd, d.spec),
            )
        return min(scored, key=lambda d: (d.predicted_s, d.spec))

    def choose_remaining(
        self,
        features: JobFeatures,
        rate: RateSpec,
        budget_s: float,
        elapsed_s: float,
        measured_s: Optional[Mapping[str, float]] = None,
    ) -> ScheduleDecision:
        """Re-plan a redelivered job against what is *left* of its budget.

        A crashed worker's job comes back with its deadline clock still
        running: the wait it already served plus the wasted attempt are
        sunk, so the re-dispatch must fit ``budget_s - elapsed_s``.  When
        nothing fits (including a fully spent budget), :meth:`choose`
        degrades to the fastest rung — the least-late option for a job
        we still owe an answer on.
        """
        if not math.isfinite(elapsed_s) or elapsed_s < 0:
            raise ValueError(
                f"elapsed time must be finite and >= 0, got {elapsed_s}"
            )
        return self.choose(
            features,
            rate,
            max(budget_s - elapsed_s, 0.0),
            measured_s=measured_s,
        )
