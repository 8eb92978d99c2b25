"""Fault tolerance for the transcoding farm.

Deterministic building blocks — everything runs on seeded RNGs and a
simulated clock, so chaos experiments replay byte-identically:

* :mod:`repro.robust.clock` — the simulated clock.
* :mod:`repro.robust.faults` — seeded fault injection around any backend.
* :mod:`repro.robust.retry` — capped exponential backoff + deadline budgets.
* :mod:`repro.robust.breaker` — per-backend circuit breakers.
* :mod:`repro.robust.degrade` — the graceful-degradation ladder.

:class:`repro.pipeline.farm.TranscodeFarm` composes them into the
sharing service's worker farm.
"""

from repro.robust.breaker import BreakerState, CircuitBreaker
from repro.robust.clock import EventQueue, SimClock
from repro.robust.degrade import DowngradeEvent, degradation_ladder
from repro.robust.faults import (
    BackendOutage,
    FaultCounts,
    FaultError,
    FaultPlan,
    FaultyTranscoder,
    TransientFault,
)
from repro.robust.retry import DeadlineBudget, DeadlinePolicy, RetryPolicy

__all__ = [
    "BackendOutage",
    "BreakerState",
    "CircuitBreaker",
    "DeadlineBudget",
    "DeadlinePolicy",
    "DowngradeEvent",
    "EventQueue",
    "FaultCounts",
    "FaultError",
    "FaultPlan",
    "FaultyTranscoder",
    "RetryPolicy",
    "SimClock",
    "TransientFault",
    "degradation_ladder",
]
