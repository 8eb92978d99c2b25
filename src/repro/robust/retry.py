"""Retry policy with capped exponential backoff, and deadline budgets.

Two rules govern a production transcode job:

* **Retry, but back off.**  Transient faults clear on their own; hammering
  a struggling backend makes them worse.  Delays grow geometrically up to
  a cap, with *deterministic* jitter (a hash of the backend key and the
  attempt number) so two runs of the same chaos experiment sleep the same
  simulated seconds while two different backends still desynchronize.

* **Never blow the deadline on a retry.**  The paper's Live scenario is a
  hard real-time constraint — a transcode that lands after the stream has
  moved on is worthless — so a retry whose backoff alone would exceed the
  remaining budget is not attempted; the job degrades to a faster rung
  instead (:mod:`repro.robust.degrade`).  Batch scenarios (Upload, VOD,
  Popular) get generous budgets scaled from the clip duration.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.core.scenarios import Scenario
from repro.robust.clock import SimClock
from repro.video.video import Video

__all__ = ["DeadlineBudget", "DeadlinePolicy", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    Attributes:
        max_attempts: Attempts per ladder rung before degrading (>= 1).
        base_delay_s: Backoff before the first retry.
        multiplier: Geometric growth factor per further retry.
        max_delay_s: Backoff cap.
        jitter: Fractional spread: the delay is scaled into
            ``[1 - jitter, 1 + jitter]`` by a stable hash, never by global
            randomness.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"need at least one attempt, got {self.max_attempts}")
        for delay in (self.base_delay_s, self.max_delay_s):
            if not math.isfinite(delay) or delay < 0:
                raise ValueError(
                    f"backoff delays must be finite and non-negative, got {delay}"
                )
        if not math.isfinite(self.multiplier) or self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be finite and >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoff_s(self, failures: int, key: str = "") -> float:
        """Delay before the retry that follows ``failures`` failures.

        ``failures`` is 1-based: the first retry (after one failure) waits
        roughly ``base_delay_s``.  The jitter fraction is
        ``crc32(key | failures)``-derived, so it is reproducible across
        processes (unlike :func:`hash`, which is salted).
        """
        if failures < 1:
            raise ValueError(f"backoff needs >= 1 prior failure, got {failures}")
        raw = min(
            self.base_delay_s * self.multiplier ** (failures - 1),
            self.max_delay_s,
        )
        spread = zlib.crc32(f"{key}|{failures}".encode("utf-8")) % 10_000 / 9_999.0
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * spread)


@dataclass(frozen=True)
class DeadlinePolicy:
    """Per-scenario deadline budgets, scaled from the clip duration.

    Attributes:
        live_factor: Live budget as a multiple of the clip duration; 1.0
            is the paper's real-time constraint (transcode at least as
            fast as the stream plays).
        batch_factor: Budget multiple for the non-realtime scenarios.
        floor_s: Minimum budget, so very short clips keep room for at
            least one attempt.
    """

    live_factor: float = 1.0
    batch_factor: float = 60.0
    floor_s: float = 0.05

    def __post_init__(self) -> None:
        for factor in (self.live_factor, self.batch_factor):
            if not math.isfinite(factor) or factor <= 0:
                raise ValueError(
                    f"deadline factors must be finite and positive, got {factor}"
                )
        if not math.isfinite(self.floor_s) or self.floor_s < 0:
            raise ValueError(
                f"floor must be finite and non-negative, got {self.floor_s}"
            )

    def budget_s(self, video: Video, scenario: Scenario) -> float:
        """The deadline budget for transcoding ``video`` under ``scenario``."""
        factor = self.live_factor if scenario.realtime else self.batch_factor
        return max(video.duration * factor, self.floor_s)


class DeadlineBudget:
    """One job's remaining time, measured against the simulated clock.

    Args:
        clock: The farm's clock; the budget starts "now".
        budget_s: Total seconds allowed, or ``None`` for unlimited.
    """

    def __init__(self, clock: SimClock, budget_s: Optional[float] = None) -> None:
        if budget_s is not None and (
            not math.isfinite(budget_s) or budget_s < 0
        ):
            raise ValueError(f"budget must be finite and >= 0, got {budget_s}")
        self._clock = clock
        self._start = clock.now
        self._budget = budget_s

    @property
    def budget_s(self) -> Optional[float]:
        return self._budget

    @property
    def elapsed_s(self) -> float:
        return self._clock.now - self._start

    @property
    def remaining_s(self) -> float:
        if self._budget is None:
            return math.inf
        return self._budget - self.elapsed_s

    @property
    def exceeded(self) -> bool:
        return self.remaining_s < 0

    def allows(self, extra_s: float) -> bool:
        """Whether spending ``extra_s`` more seconds stays inside budget."""
        return extra_s <= self.remaining_s
