"""The project-specific vlint checkers.

Importing this package registers every checker with
:mod:`repro.analysis.registry`:

* **VL001** :mod:`~repro.analysis.checkers.determinism` -- no unseeded
  randomness or wall-clock reads in the deterministic packages.
* **VL002** :mod:`~repro.analysis.checkers.dtype_safety` -- uint8 frame
  math must widen; narrowing casts must clip.
* **VL003** :mod:`~repro.analysis.checkers.fork_safety` -- pool workers
  must be module-level, pure, and picklable.
* **VL004** :mod:`~repro.analysis.checkers.symmetry` -- every bitstream
  writer has a mirrored reader.
* **VL005** :mod:`~repro.analysis.checkers.exports` -- package
  ``__all__`` matches what is actually bound.
* **VL006** :mod:`~repro.analysis.checkers.exceptions` -- codec decode
  paths raise only the bitstream error taxonomy, directly or through
  any call chain.
* **VL007** :mod:`~repro.analysis.checkers.clock_discipline` --
  simulated-time code (traffic, SimClock) never reaches a wall clock.
* **VL008** :mod:`~repro.analysis.checkers.dead_api` -- every
  ``__all__`` export has an in-repo caller.

VL001-VL005 are file rules (``check``); VL006-VL008 are project rules
(``check_project``) over the solved call graph.  Each rule has exactly
one implementation.
"""

from repro.analysis.checkers.clock_discipline import ClockDisciplineChecker
from repro.analysis.checkers.dead_api import DeadApiChecker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.dtype_safety import DtypeSafetyChecker
from repro.analysis.checkers.exceptions import ExceptionHygieneChecker
from repro.analysis.checkers.exports import ExportSyncChecker
from repro.analysis.checkers.fork_safety import ForkSafetyChecker
from repro.analysis.checkers.symmetry import (
    SymmetricPair,
    SymmetryChecker,
    discover_pairs,
)

__all__ = [
    "ClockDisciplineChecker",
    "DeadApiChecker",
    "DeterminismChecker",
    "DtypeSafetyChecker",
    "ExceptionHygieneChecker",
    "ExportSyncChecker",
    "ForkSafetyChecker",
    "SymmetricPair",
    "SymmetryChecker",
    "discover_pairs",
]
