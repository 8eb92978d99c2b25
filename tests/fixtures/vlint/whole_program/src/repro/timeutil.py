"""Fixture: a wall-clock helper *outside* every per-file rule's scope.

Nothing here is a violation on its own -- ``repro.timeutil`` is not a
deterministic package, so VL001 never looks at it.  VL007 must
discover that callers in simulated-time packages reach this clock
read through the call graph.
"""

import time


def stamp() -> float:
    return time.perf_counter()
