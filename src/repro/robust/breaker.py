"""A per-backend circuit breaker (closed / open / half-open).

Retrying a dead backend wastes deadline budget on every job that touches
it.  The breaker converts repeated failure into fast rejection:

* **closed** — normal operation; consecutive failures are counted, and at
  ``failure_threshold`` the breaker trips open.
* **open** — every admission request is refused (callers degrade to the
  next ladder rung immediately) until ``cooldown_s`` of simulated time
  has passed.
* **half-open** — after the cooldown, a limited number of *probe* calls
  are admitted.  A probe success closes the breaker; a probe failure
  reopens it and restarts the cooldown.

State changes only on ``allow`` / ``record_*`` calls with explicit
timestamps from the farm's :class:`~repro.robust.clock.SimClock`, so the
breaker is as deterministic as everything else in :mod:`repro.robust`.
"""

from __future__ import annotations

import enum
import math

__all__ = ["BreakerOpen", "BreakerState", "CircuitBreaker"]


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class BreakerOpen(RuntimeError):
    """Raised by :meth:`CircuitBreaker.check` when admission is refused."""


class CircuitBreaker:
    """Consecutive-failure circuit breaker over simulated time.

    Args:
        failure_threshold: Consecutive failures that trip the breaker.
        cooldown_s: Simulated seconds an open breaker waits before
            admitting probes.
        half_open_probes: Probe calls admitted per half-open episode.
    """

    def __init__(
        self,
        failure_threshold: int = 4,
        cooldown_s: float = 30.0,
        half_open_probes: int = 1,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure threshold must be >= 1, got {failure_threshold}"
            )
        if not math.isfinite(cooldown_s) or cooldown_s <= 0:
            raise ValueError(
                f"cooldown must be positive and finite, got {cooldown_s}"
            )
        if half_open_probes < 1:
            raise ValueError(
                f"need at least one half-open probe, got {half_open_probes}"
            )
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.half_open_probes = half_open_probes
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_admitted = 0

    @property
    def state(self) -> BreakerState:
        return self._state

    @property
    def consecutive_failures(self) -> int:
        return self._consecutive_failures

    def allow(self, now: float) -> bool:
        """Whether a call may be attempted at simulated time ``now``."""
        if self._state is BreakerState.CLOSED:
            return True
        if self._state is BreakerState.OPEN:
            if now - self._opened_at < self.cooldown_s:
                return False
            self._state = BreakerState.HALF_OPEN
            self._probes_admitted = 0
        # Half-open: admit a bounded number of probes.
        if self._probes_admitted < self.half_open_probes:
            self._probes_admitted += 1
            return True
        return False

    def check(self, now: float) -> None:
        """Like :meth:`allow`, but raises :class:`BreakerOpen` on refusal."""
        if not self.allow(now):
            raise BreakerOpen(
                f"circuit open ({self._consecutive_failures} consecutive failures)"
            )

    def record_success(self) -> None:
        """A call admitted by :meth:`allow` succeeded."""
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._probes_admitted = 0

    def record_failure(self, now: float) -> None:
        """A call admitted by :meth:`allow` failed at time ``now``."""
        self._consecutive_failures += 1
        if self._state is BreakerState.HALF_OPEN:
            self._state = BreakerState.OPEN
            self._opened_at = now
        elif (
            self._state is BreakerState.CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._state = BreakerState.OPEN
            self._opened_at = now

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self._state.value}, "
            f"failures={self._consecutive_failures})"
        )
