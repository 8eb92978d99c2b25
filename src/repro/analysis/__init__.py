"""Static analysis ("vlint"): the repo's invariants, enforced at parse time.

Byte-identical parallel/cached reports and replayable chaos runs rest
on invariants -- pure pool workers, mirrored bitstream writers/readers,
an explicit export surface, a closed decode error taxonomy -- that no
test exercises directly.  This package is an
AST-based lint framework (stdlib :mod:`ast`, no dependencies) that makes
those invariants fail the build instead.  No clock and no global or
unseeded RNG in ``src/`` are ``tests/test_repo_hygiene.py``'s to
enforce, not vlint's: its tree-wide scans are stricter than the retired
rules were.  Pixel wraparound is the golden bitstream digests' to catch.

Every run has two phases.  Phase 1 walks files independently (and in
parallel) running the file rules and extracting a
:class:`~repro.analysis.summaries.ModuleSummary` per file.  Phase 2
merges the summaries into a :class:`~repro.analysis.project.ProjectIndex`,
solves interprocedural facts to a fixed point over the cross-module call
graph, and runs the project rules; it is always serial and fully sorted,
so serial and ``--jobs N`` reports stay byte-identical.

* :mod:`repro.analysis.registry` -- checker registry + ``ModuleInfo``.
* :mod:`repro.analysis.engine` -- file discovery, parallel phase 1,
  deterministic phase 2 and merge.
* :mod:`repro.analysis.summaries` -- the per-module call/raise/export IR.
* :mod:`repro.analysis.callgraph` -- cross-module call-graph resolution.
* :mod:`repro.analysis.project` -- the merged index + fixed-point solve.
* :mod:`repro.analysis.findings` -- structured findings.
* :mod:`repro.analysis.reporters` -- text and stable-JSON rendering.
* :mod:`repro.analysis.checkers` -- the project rules (VL003-VL006,
  VL008).

Run it as ``python -m repro lint`` (the CI gate) or programmatically via
:func:`lint_paths` / :func:`build_project_index`.  Nothing mutes a rule:
there is no allowlist file and no inline suppression, so any finding
fails the run.  The repo self-hosts: ``tests/test_vlint.py`` asserts the
source tree lints clean.
"""

from repro.analysis.checkers import (
    DeadApiChecker,
    ExceptionHygieneChecker,
    ExportSyncChecker,
    ForkSafetyChecker,
    SymmetricPair,
    SymmetryChecker,
    discover_pairs,
)
from repro.analysis.engine import (
    LintReport,
    collect_summaries,
    lint_paths,
    module_name_for,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import ProjectIndex, build_project_index
from repro.analysis.registry import (
    Checker,
    ModuleInfo,
    all_checkers,
    checker_for,
    register,
)
from repro.analysis.reporters import (
    JSON_REPORT_VERSION,
    render_json,
    render_text,
)

__all__ = [
    "Checker",
    "DeadApiChecker",
    "ExceptionHygieneChecker",
    "ExportSyncChecker",
    "Finding",
    "ForkSafetyChecker",
    "JSON_REPORT_VERSION",
    "LintReport",
    "ModuleInfo",
    "ProjectIndex",
    "Severity",
    "SymmetricPair",
    "SymmetryChecker",
    "all_checkers",
    "build_project_index",
    "checker_for",
    "collect_summaries",
    "discover_pairs",
    "lint_paths",
    "module_name_for",
    "render_json",
    "render_text",
    "register",
]
