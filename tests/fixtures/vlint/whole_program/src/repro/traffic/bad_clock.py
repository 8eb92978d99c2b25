"""Fixture: simulated-time code reaching the wall clock indirectly.

No wall-clock module is even imported here -- the read hides behind
``repro.timeutil.stamp``.  VL007 must resolve the call and report
the chain.
"""

from repro.timeutil import stamp


def next_deadline(now_s: float) -> float:
    return now_s + stamp()
