"""A simulated clock: the farm's single source of time.

Everything in :mod:`repro.robust` is deterministic — fault draws come from
seeded RNGs, and *time* comes from this clock rather than the wall.  A
transcode "takes" its modeled ``seconds`` by advancing the clock; a retry
backoff "sleeps" the same way.  Chaos experiments therefore replay
byte-identically under the same seed, and tests can assert on exact
timelines.

The farm simulates N parallel workers on one interpreter thread by
*seeking* the clock to each worker's frontier before running its next job
(see :class:`repro.pipeline.farm.TranscodeFarm`), so time is monotonic
per worker but not globally — the same relaxation a distributed farm's
per-node clocks exhibit.

The traffic simulator (:mod:`repro.traffic`) adds a second use: a global
*event* clock that only ever moves forward.  :meth:`SimClock.advance_to`
provides that contract (a backwards target is a no-op), and
:class:`EventQueue` is the deterministic event heap the simulator pops
in ``(when, sequence)`` order — ties break by insertion order, never by
payload identity, so two runs replay the same schedule byte-for-byte.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, List, Tuple

__all__ = ["EventQueue", "SimClock"]


class SimClock:
    """Simulated seconds since the start of the experiment."""

    def __init__(self, start: float = 0.0) -> None:
        if not math.isfinite(start):
            raise ValueError(f"clock cannot start at a non-finite time, got {start}")
        if start < 0:
            raise ValueError(f"clock cannot start negative, got {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Spend ``seconds`` of simulated time; returns the new time."""
        if not math.isfinite(seconds):
            raise ValueError(f"cannot advance by a non-finite time, got {seconds}")
        if seconds < 0:
            raise ValueError(f"cannot advance by negative time, got {seconds}")
        self._now += seconds
        return self._now

    def seek(self, when: float) -> float:
        """Jump to absolute time ``when`` (a worker's frontier).

        Backwards jumps are allowed: the farm seeks to each worker's
        frontier before running its next job, and an idle worker's
        frontier lies behind the busiest worker's.  Code that needs a
        globally monotonic clock uses :meth:`advance_to` instead.
        """
        if not math.isfinite(when):
            raise ValueError(f"cannot seek to a non-finite time, got {when}")
        if when < 0:
            raise ValueError(f"cannot seek to negative time, got {when}")
        self._now = float(when)
        return self._now

    def advance_to(self, when: float) -> float:
        """Move forward to absolute time ``when``; never backwards.

        A target at or before ``now`` is a **no-op** (the current time is
        returned unchanged).  This is the event-loop contract: the traffic
        simulator pops events in nondecreasing time order and advances the
        global clock to each one, so a stale target must not rewind time.
        """
        if not math.isfinite(when):
            raise ValueError(f"cannot advance to a non-finite time, got {when}")
        if when > self._now:
            self._now = float(when)
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f})"


class EventQueue:
    """A deterministic min-heap of timestamped events.

    Events pop in nondecreasing ``when`` order; simultaneous events pop in
    insertion order (a monotone sequence number breaks ties, so payloads
    never need to be comparable).  All timestamps must be finite and
    non-negative — a NaN inside a heap silently corrupts its ordering,
    which is exactly the kind of nondeterminism this repo lints against.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Any]] = []
        self._seq = 0

    def schedule(self, when: float, event: Any) -> None:
        """Add ``event`` at absolute simulated time ``when``."""
        if not math.isfinite(when):
            raise ValueError(f"cannot schedule at a non-finite time, got {when}")
        if when < 0:
            raise ValueError(f"cannot schedule at a negative time, got {when}")
        heapq.heappush(self._heap, (float(when), self._seq, event))
        self._seq += 1

    def pop(self) -> Tuple[float, Any]:
        """Remove and return the earliest ``(when, event)`` pair."""
        if not self._heap:
            raise IndexError("pop from an empty EventQueue")
        when, _, event = heapq.heappop(self._heap)
        return when, event

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __repr__(self) -> str:
        return f"EventQueue(pending={len(self._heap)})"
