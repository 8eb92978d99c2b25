"""Static analysis ("vlint"): the repo's invariants, enforced at parse time.

PR 2 made byte-identical parallel/cached reports a hard contract and PR 1
made chaos runs replayable; both rest on invariants -- fully seeded RNG
streams, wall-clock reads quarantined to ``wall_seconds`` measurement,
clip-guarded pixel math, pure pool workers, mirrored bitstream
writers/readers -- that nothing enforced.  One unseeded ``default_rng()``
or a ``perf_counter()`` value leaking into a cache key breaks
reproducibility silently.  This package is an AST-based lint framework
(stdlib :mod:`ast`, no dependencies) that makes those invariants fail the
build instead.

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
* :mod:`repro.analysis.baseline` -- the ``.vlint.toml`` allowlist.
* :mod:`repro.analysis.reporters` -- text and stable-JSON rendering.
* :mod:`repro.analysis.checkers` -- the project rules (VL001-VL008).

Run it as ``python -m repro lint`` (the CI gate) or programmatically via
:func:`lint_paths` / :func:`build_project_index`.  The repo self-hosts:
``tests/test_vlint.py`` asserts the source tree lints clean.
"""

from repro.analysis.baseline import (
    Baseline,
    BaselineEntry,
    load_baseline,
    parse_baseline,
    render_baseline,
)
from repro.analysis.checkers import (
    ClockDisciplineChecker,
    DeadApiChecker,
    DeterminismChecker,
    DtypeSafetyChecker,
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
    known_rules,
    register,
)
from repro.analysis.reporters import (
    JSON_REPORT_VERSION,
    render_json,
    render_text,
)

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Checker",
    "ClockDisciplineChecker",
    "DeadApiChecker",
    "DeterminismChecker",
    "DtypeSafetyChecker",
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
    "known_rules",
    "lint_paths",
    "load_baseline",
    "module_name_for",
    "parse_baseline",
    "render_baseline",
    "render_json",
    "render_text",
    "register",
]
