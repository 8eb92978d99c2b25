"""Admission control: decide at the door, not in the queue.

An overloaded farm has exactly three honest answers to a new request,
and each traffic class gets the one its SLO can live with:

* **Admit** — take the job into the bounded queue.
* **Shed** — reject *fast*.  A Live session start that would wait past
  its real-time budget is worthless when it finishes; rejecting it at
  arrival costs nothing and protects the requests already queued.  This
  is load shedding in the classic sense (the approach of the
  transcoding-time-prediction literature in PAPERS.md: know the
  deadline, estimate the wait, refuse what cannot make it).
* **Backpressure** — tell the client to retry later.  Upload ingest has
  no deadline, so a full queue pushes back with a growing retry delay
  instead of dropping the upload; only a client that exhausts its
  retries is finally shed.

The controller is pure decision logic: the simulator owns the queue and
the clock and feeds in the observed state (depth, estimated wait,
deadline slack).  Determinism follows for free — no randomness, no wall
time, just policy applied to numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Optional, Tuple

from repro.core.scenarios import Scenario

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "Decision",
    "ScenarioPolicy",
    "ServiceTimeEstimator",
]

#: Decision verdicts (kept as plain strings so reports render directly).
ADMIT = "admit"
SHED = "shed"
RETRY = "retry"


@dataclass(frozen=True)
class ScenarioPolicy:
    """How one traffic class is admitted.

    Attributes:
        max_depth: Queue depth at which the class stops being admitted.
        shed_on_deadline: Shed when the estimated queue wait exceeds the
            request's deadline slack (Live's fast-reject path).
        retry_on_full: Convert a full queue into client backpressure
            (Upload) instead of an immediate shed.
        max_retries: Backpressure retries before the client gives up.
        retry_base_s: First retry delay.
        retry_multiplier: Geometric growth of successive retry delays.
    """

    max_depth: int = 32
    shed_on_deadline: bool = False
    retry_on_full: bool = False
    max_retries: int = 3
    retry_base_s: float = 5.0
    retry_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not math.isfinite(self.retry_base_s) or self.retry_base_s < 0:
            raise ValueError(
                f"retry_base_s must be finite and >= 0, got {self.retry_base_s}"
            )
        if not math.isfinite(self.retry_multiplier) or self.retry_multiplier < 1.0:
            raise ValueError(
                "retry_multiplier must be finite and >= 1, got "
                f"{self.retry_multiplier}"
            )

    def retry_delay_s(self, attempt: int) -> float:
        """Backpressure delay before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        return self.retry_base_s * self.retry_multiplier ** (attempt - 1)


def _default_upload() -> ScenarioPolicy:
    return ScenarioPolicy(max_depth=48, retry_on_full=True, max_retries=3)


def _default_live() -> ScenarioPolicy:
    return ScenarioPolicy(max_depth=8, shed_on_deadline=True)


def _default_vod() -> ScenarioPolicy:
    return ScenarioPolicy(max_depth=32)


@dataclass(frozen=True)
class AdmissionConfig:
    """Per-class admission policies (defaults match PAPER.md's QoS table:
    Live is latency-critical, Upload is throughput-critical, VOD sits
    between)."""

    upload: ScenarioPolicy = field(default_factory=_default_upload)
    live: ScenarioPolicy = field(default_factory=_default_live)
    vod: ScenarioPolicy = field(default_factory=_default_vod)

    def policy_for(self, scenario: Scenario) -> ScenarioPolicy:
        policies: Dict[Scenario, ScenarioPolicy] = {
            Scenario.UPLOAD: self.upload,
            Scenario.LIVE: self.live,
            Scenario.VOD: self.vod,
        }
        policy = policies.get(scenario)
        if policy is None:
            raise ValueError(f"no admission policy for scenario {scenario.value!r}")
        return policy


@dataclass(frozen=True)
class Decision:
    """What the door said, and why.

    Attributes:
        verdict: ``"admit"``, ``"shed"``, or ``"retry"``.
        reason: Stable machine-readable cause (``"deadline"``,
            ``"queue-full"``, ``"retries-exhausted"``) for shed/retry.
        retry_delay_s: Backpressure delay when the verdict is retry.
    """

    verdict: str
    reason: str = ""
    retry_delay_s: float = 0.0

    @property
    def admitted(self) -> bool:
        return self.verdict == ADMIT


class ServiceTimeEstimator:
    """Per-class service-time estimates feeding the wait predictions.

    The estimate that decides a Live fast-shed must never borrow
    evidence from another traffic class: Upload's two-pass encodes run
    several times longer than Live's single-pass ones, so a cross-class
    average would shed Live sessions that were perfectly schedulable
    (or admit doomed ones).  Estimates resolve strictly within the
    class, in order:

    1. **exact** -- this ``(scenario, key)`` has completed before; the
       farm is deterministic, so a repeat costs what it cost last time;
    2. **seed** -- the optional hook (the transcode-time predictor, in
       the simulator's predictor arm), which knows this *specific* job
       before any completion has been observed;
    3. **per-class EWMA** -- the class's own completion history;
    4. **prior** -- ``prior_s`` (default 0.0: deliberately optimistic,
       so an unseeded cold start admits and learns rather than guesses
       requests away).

    Under fleet chaos, callers must feed :meth:`observe` only
    *successful first-attempt* service times: a straggler's 20x run or
    a crashed attempt's partial time would contaminate the EWMA and
    shed admissible work for the rest of the run (the simulator gates
    on exactly this; see ``TestEstimatorCleanliness``).

    Args:
        alpha: EWMA weight of the newest observation.
        prior_s: The documented cold-start prior.
        seed: Optional ``(scenario, key) -> seconds`` hook consulted
            before the EWMA; return ``None`` to decline.
    """

    def __init__(
        self,
        alpha: float = 0.3,
        prior_s: float = 0.0,
        seed: Optional[Callable[[Scenario, Hashable], Optional[float]]] = None,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not math.isfinite(prior_s) or prior_s < 0:
            raise ValueError(f"prior must be finite and >= 0, got {prior_s}")
        self.alpha = alpha
        self.prior_s = prior_s
        self.seed = seed
        self._known: Dict[Tuple[Scenario, Hashable], float] = {}
        self._ewma: Dict[Scenario, float] = {}

    def expected(self, scenario: Scenario, key: Hashable) -> float:
        """Best in-class estimate for one job (see resolution order)."""
        known = self._known.get((scenario, key))
        if known is not None:
            return known
        if self.seed is not None:
            seeded = self.seed(scenario, key)
            if seeded is not None:
                return seeded
        return self._ewma.get(scenario, self.prior_s)

    def observe(self, scenario: Scenario, key: Hashable, service_s: float) -> None:
        """Fold one completed job's service time into the class state."""
        self._known[(scenario, key)] = service_s
        previous = self._ewma.get(scenario)
        if previous is None:
            self._ewma[scenario] = service_s
        else:
            self._ewma[scenario] = (
                self.alpha * service_s + (1.0 - self.alpha) * previous
            )


class AdmissionController:
    """Apply per-class policy to the observed queue state."""

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config

    def decide(
        self,
        scenario: Scenario,
        depth: int,
        expected_wait_s: float,
        deadline_slack_s: float,
        attempt: int = 1,
    ) -> Decision:
        """Admit, shed, or backpressure one arriving request.

        Args:
            scenario: The request's traffic class.
            depth: Current admission-queue depth.
            expected_wait_s: The simulator's estimate of the queue wait
                this request would see.
            deadline_slack_s: Time the request can afford to wait and
                still meet its deadline (budget minus expected service).
            attempt: 1-based arrival attempt (grows with backpressure
                retries).
        """
        if depth < 0:
            raise ValueError(f"queue depth cannot be negative, got {depth}")
        policy = self.config.policy_for(scenario)
        if policy.shed_on_deadline and expected_wait_s > max(deadline_slack_s, 0.0):
            return Decision(verdict=SHED, reason="deadline")
        if depth >= policy.max_depth:
            if policy.retry_on_full and attempt <= policy.max_retries:
                return Decision(
                    verdict=RETRY,
                    reason="queue-full",
                    retry_delay_s=policy.retry_delay_s(attempt),
                )
            reason = "retries-exhausted" if policy.retry_on_full else "queue-full"
            return Decision(verdict=SHED, reason=reason)
        return Decision(verdict=ADMIT)
