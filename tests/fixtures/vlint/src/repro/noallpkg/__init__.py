"""VL005 planted-defect fixture: a package ``__init__`` without ``__all__``.

Planted in ``repro.uarch``, this failed no tier-1 test, smoke, paper
figure or benchmark smoke.

Linted by tests/test_vlint.py, never imported or executed.
"""

from math import ceil, floor
