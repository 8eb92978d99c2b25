"""The lint engine: two phases, one deterministic report.

**Phase 1** discovers files and walks them in parallel, one file at a
time, mirroring the execution contract of :mod:`repro.exec.runner`: work
fans out across a fork-based process pool, results are collected in
deterministic order (sorted paths, then per-file findings sorted by
location), and the serial and parallel paths produce byte-identical
reports.  Each worker returns the file's findings *and* its
:class:`~repro.analysis.summaries.ModuleSummary`.

**Phase 2** (``whole_program=True``) merges the summaries into a
:class:`~repro.analysis.project.ProjectIndex`, runs the fixed-point
solve, and gives every checker's ``check_project`` hook a shot at the
global facts.  Phase 2 is always serial and iterates everything in
sorted order, so ``--jobs N`` cannot reorder or change its findings:
lint findings about nondeterminism had better be deterministic
themselves.

Module names are inferred from paths: everything after the last ``src``
path segment (or from the first ``repro`` segment) joined with dots,
which is how fixture trees under ``tests/fixtures/vlint/src/...`` get
linted as if they lived in the real package.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import ModuleInfo, all_checkers
from repro.analysis.summaries import ModuleSummary, extract_summary

__all__ = [
    "LintReport",
    "collect_summaries",
    "lint_file",
    "lint_paths",
    "module_name_for",
]

#: Directories never descended into during file discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}

#: Pseudo-rule for engine-level hygiene findings (stale baseline entries).
STALE_BASELINE_RULE = "VL000"


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    stale_entries: List[BaselineEntry] = field(default_factory=list)
    call_graph: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not any(
            f.severity is Severity.ERROR for f in self.findings
        )


def module_name_for(path: Union[str, Path]) -> str:
    """Dotted module name for a source path.

    ``/repo/src/repro/codec/encoder.py`` -> ``repro.codec.encoder`` and
    ``.../src/repro/exec/__init__.py`` -> ``repro.exec``.  Falls back to
    the bare stem when neither a ``src`` nor a ``repro`` segment exists.
    """
    parts = list(Path(path).parts)
    parts[-1] = Path(parts[-1]).stem
    if parts[-1] == "__init__":
        parts.pop()
    anchor = 0
    for index, part in enumerate(parts):
        if part == "src":
            anchor = index + 1
    if anchor == 0 and "repro" in parts:
        anchor = parts.index("repro")
    tail = parts[anchor:]
    return ".".join(tail) if tail else Path(path).stem


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    A directory is walked recursively; a file named explicitly must be a
    ``.py`` file -- handing the linter ``notes.txt`` is a caller mistake
    that must fail loudly, not a file to skip silently.
    """
    found = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    found.add(candidate)
        elif path.exists():
            if path.suffix != ".py":
                raise ValueError(
                    f"not a Python source file: {path} (explicitly named "
                    f"files must end in .py)"
                )
            found.add(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(found)


def lint_file(
    path: Union[str, Path],
    module: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one file; findings come back sorted by location."""
    path = str(path)
    info = ModuleInfo.from_path(path, module or module_name_for(path))
    return _check(info, rules)


def _check(info: ModuleInfo, rules: Optional[Sequence[str]]) -> List[Finding]:
    """The per-file rules over one parsed module, sorted by location."""
    findings: List[Finding] = []
    for checker in all_checkers(rules):
        findings.extend(checker.check(info))
    return sorted(findings, key=Finding.sort_key)


def _process_one(
    task: Tuple[str, Optional[Tuple[str, ...]], bool]
) -> Tuple[List[Finding], Optional[ModuleSummary]]:
    """Pool worker: phase 1 for one file.

    Returns ``(findings, summary)``; ``summary`` is ``None`` unless
    requested.  Pure function of its arguments -- no module globals are
    read or written, so it is fork- and spawn-safe.
    """
    path, rules, want_summary = task
    info = ModuleInfo.from_path(path, module_name_for(path))
    return _check(info, rules), (extract_summary(info) if want_summary else None)


def _pool(jobs: int):
    if jobs == 1:
        return nullcontext()
    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    return ProcessPoolExecutor(max_workers=jobs, mp_context=context)


def _run_phase1(
    files: Sequence[Path],
    rules: Optional[Tuple[str, ...]],
    jobs: int,
    want_summaries: bool = True,
) -> Tuple[List[Finding], List[ModuleSummary]]:
    """Walk ``files`` (in parallel for ``jobs > 1``), in sorted order."""
    tasks = [(str(path), rules, want_summaries) for path in files]
    per_file: Iterable[Tuple[List[Finding], Optional[ModuleSummary]]]
    findings: List[Finding] = []
    summaries: List[ModuleSummary] = []
    with _pool(jobs) as executor:
        if executor is None:
            per_file = map(_process_one, tasks)
        else:
            per_file = executor.map(_process_one, tasks)
        for file_findings, summary in per_file:
            findings.extend(file_findings)
            if summary is not None:
                summaries.append(summary)
    return findings, summaries


def collect_summaries(
    paths: Sequence[Union[str, Path]],
    jobs: int = 1,
) -> List[ModuleSummary]:
    """Extract :class:`ModuleSummary` objects for every file under
    ``paths`` without running any checker (``rules=()``), in sorted-path
    order.  This is the summaries-only path used for *reference* trees
    (tests, examples): their names count as usage for the whole-program
    rules, but they are never linted themselves.
    """
    files = iter_python_files(paths)
    _, summaries = _run_phase1(files, (), jobs)
    return summaries


def lint_paths(
    paths: Sequence[Union[str, Path]],
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[Baseline] = None,
    jobs: int = 1,
    whole_program: bool = False,
    reference_paths: Sequence[Union[str, Path]] = (),
) -> LintReport:
    """Lint every ``.py`` file under ``paths``.

    ``jobs > 1`` fans phase 1 out across a process pool; the report is
    byte-identical to a serial run because files are independent, results
    merge in sorted-path order, and phase 2 -- enabled with
    ``whole_program=True`` -- is always serial and fully sorted.
    """
    if jobs < 1:
        raise ValueError(f"need at least one job, got {jobs}")
    files = iter_python_files(paths)
    rule_tuple = tuple(rules) if rules is not None else None
    merged, summaries = _run_phase1(
        files, rule_tuple, jobs, want_summaries=whole_program
    )
    report = LintReport(files_checked=len(files))

    if whole_program:
        from repro.analysis.project import ProjectIndex

        lint_modules = {summary.module for summary in summaries}
        reference = [
            summary
            for summary in collect_summaries(reference_paths, jobs=jobs)
            if summary.module not in lint_modules
        ]
        index = ProjectIndex(
            summaries + reference, lint_modules=lint_modules
        ).solve()
        for checker in all_checkers(rule_tuple):
            merged.extend(checker.check_project(index))
        report.call_graph = index.graph.to_dict()

    if baseline is None:
        report.findings = merged
        return _finish_report(report)

    matched: set = set()
    for finding in merged:
        entry_index = next(
            (
                i
                for i, entry in enumerate(baseline.entries)
                if entry.matches(finding)
            ),
            None,
        )
        if entry_index is None:
            report.findings.append(finding)
        else:
            matched.add(entry_index)
            report.suppressed.append(finding)
    # Staleness is only decidable when the complete rule surface ran:
    # a per-file or rule-filtered run never produces whole-program
    # findings, so their baseline entries would read as false stales.
    if not (whole_program and rules is None):
        return _finish_report(report)
    report.stale_entries = [
        entry
        for i, entry in enumerate(baseline.entries)
        if i not in matched
    ]
    baseline_path = baseline.source or ".vlint.toml"
    for entry in report.stale_entries:
        where = f"{entry.rule} at {entry.path}"
        if entry.line is not None:
            where += f":{entry.line}"
        report.findings.append(
            Finding(
                rule=STALE_BASELINE_RULE,
                path=baseline_path,
                line=entry.lineno or 0,
                column=1,
                message=(
                    f"stale baseline entry ({where}) matched no finding; "
                    f"the sanctioned site is gone -- remove the entry or "
                    f"run `repro lint --prune-baseline`"
                ),
                severity=Severity.WARNING,
            )
        )
    return _finish_report(report)


def _finish_report(report: LintReport) -> LintReport:
    report.findings.sort(key=Finding.sort_key)
    report.suppressed.sort(key=Finding.sort_key)
    return report
