"""The project-specific vlint checkers.

Importing this package registers every checker with
:mod:`repro.analysis.registry`:

* **VL003** :mod:`~repro.analysis.checkers.fork_safety` -- pool workers
  must be module-level, pure, and picklable.
* **VL004** :mod:`~repro.analysis.checkers.symmetry` -- every bitstream
  writer has a mirrored reader.
* **VL005** :mod:`~repro.analysis.checkers.exports` -- package
  ``__all__`` matches what is actually bound.
* **VL006** :mod:`~repro.analysis.checkers.exceptions` -- codec decode
  paths raise only the bitstream error taxonomy, directly or through
  any call chain.
* **VL008** :mod:`~repro.analysis.checkers.dead_api` -- every
  ``__all__`` export has an in-repo caller.

VL003-VL005 are file rules (``check``); VL006 and VL008 are project
rules (``check_project``) over the solved call graph.  Each rule has
exactly one implementation.  Retired rules, whose ids are never reused:
VL001 (unseeded randomness, clock reads) and VL007 (a wall clock
reachable from simulated time), which the hygiene tests
``test_src_reads_no_clock`` and ``test_src_reads_no_global_rng`` enforce
across all of ``src/``; and VL002 (uint8 wraparound), whose planted
defects the golden bitstream digests catch.
"""

from repro.analysis.checkers.dead_api import DeadApiChecker
from repro.analysis.checkers.exceptions import ExceptionHygieneChecker
from repro.analysis.checkers.exports import ExportSyncChecker
from repro.analysis.checkers.fork_safety import ForkSafetyChecker
from repro.analysis.checkers.symmetry import (
    SymmetricPair,
    SymmetryChecker,
    discover_pairs,
)

__all__ = [
    "DeadApiChecker",
    "ExceptionHygieneChecker",
    "ExportSyncChecker",
    "ForkSafetyChecker",
    "SymmetricPair",
    "SymmetryChecker",
    "discover_pairs",
]
