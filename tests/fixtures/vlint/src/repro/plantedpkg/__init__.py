"""VL005 planted-defect fixture: export drift in a package ``__init__``.

A re-export was dropped but its name stayed in ``__all__``, and a
public default was bound without being listed.  Planted in
``repro.robust`` (nothing star-imports a package), neither defect failed
a tier-1 test, smoke, paper figure or benchmark smoke.

Linted by tests/test_vlint.py, never imported or executed.
"""

from math import inf

__all__ = [
    "inf",
    "nan",  # VL005: its import was dropped
]

#: VL005: public, bound here, missing from __all__.
DEFAULT_LIMIT = inf
