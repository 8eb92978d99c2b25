"""The lint engine: two phases, one deterministic report.

**Phase 1** discovers files and walks them in parallel, one file at a
time, mirroring the execution contract of
:func:`repro.core.benchmark.run_scenario`: work fans out across a
fork-based process pool, results are collected in
deterministic order (sorted paths, then per-file findings sorted by
location), and the serial and parallel paths produce byte-identical
reports.  Each worker runs the file rules (``check``) and returns the
file's findings *and* its :class:`~repro.analysis.summaries.ModuleSummary`.

**Phase 2** merges the summaries -- plus those of any *reference* tree
(tests, examples), which count as usage but are never linted -- into a
:class:`~repro.analysis.project.ProjectIndex`, runs the fixed-point
solve, and runs the project rules (``check_project``).  Phase 2 is always
serial and iterates everything in sorted order, so ``--jobs N`` cannot
reorder or change its findings: lint findings about nondeterminism had
better be deterministic themselves.

Module names are inferred from paths: everything after the last ``src``
path segment (or from the first ``repro`` segment) joined with dots,
which is how fixture trees under ``tests/fixtures/vlint/src/...`` get
linted as if they lived in the real package.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
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

from repro.analysis.findings import Finding
from repro.analysis.project import ProjectIndex
from repro.analysis.registry import ModuleInfo, all_checkers
from repro.analysis.summaries import ModuleSummary, extract_summary

__all__ = [
    "LintReport",
    "collect_summaries",
    "lint_paths",
    "module_name_for",
]

#: Directories never descended into during file discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding]
    files_checked: int
    call_graph: Dict[str, Any]

    @property
    def ok(self) -> bool:
        return not self.findings


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


def _process_one(
    task: Tuple[str, Optional[Tuple[str, ...]], bool]
) -> Tuple[List[Finding], ModuleSummary]:
    """Pool worker: phase 1 for one file.

    Returns the file's findings, sorted by location, and its summary.
    Pure function of its arguments -- no module globals are read or
    written, so it is fork- and spawn-safe.
    """
    path, rules, reference = task
    info = ModuleInfo.from_path(path, module_name_for(path))
    findings: List[Finding] = []
    for checker in all_checkers(rules):
        findings.extend(checker.check(info))
    return sorted(findings, key=Finding.sort_key), extract_summary(info, reference)


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
    reference: bool = False,
) -> Tuple[List[Finding], List[ModuleSummary]]:
    """Walk ``files`` (in parallel for ``jobs > 1``), in sorted order."""
    tasks = [(str(path), rules, reference) for path in files]
    per_file: Iterable[Tuple[List[Finding], ModuleSummary]]
    findings: List[Finding] = []
    summaries: List[ModuleSummary] = []
    with _pool(jobs) as executor:
        if executor is None:
            per_file = map(_process_one, tasks)
        else:
            per_file = executor.map(_process_one, tasks)
        for file_findings, summary in per_file:
            findings.extend(file_findings)
            summaries.append(summary)
    return findings, summaries


def collect_summaries(
    paths: Sequence[Union[str, Path]],
    jobs: int = 1,
    reference: bool = False,
) -> List[ModuleSummary]:
    """Extract :class:`ModuleSummary` objects for every file under
    ``paths`` without running any checker (``rules=()``), in sorted-path
    order.  With ``reference`` this is the path for *reference* trees
    (tests, examples): the names they read count as usage for the
    project rules, but they are never linted themselves.
    """
    files = iter_python_files(paths)
    _, summaries = _run_phase1(files, (), jobs, reference)
    return summaries


def lint_paths(
    paths: Sequence[Union[str, Path]],
    rules: Optional[Sequence[str]] = None,
    jobs: int = 1,
    reference_paths: Sequence[Union[str, Path]] = (),
) -> LintReport:
    """Lint every ``.py`` file under ``paths``: both phases, every time.

    ``reference_paths`` (tests, examples) contribute summaries -- usage
    and call-graph nodes -- but are never linted.  ``jobs > 1`` fans
    phase 1 out across a process pool; the report is byte-identical to a
    serial run because files are independent, results merge in
    sorted-path order, and phase 2 is always serial and fully sorted.
    """
    if jobs < 1:
        raise ValueError(f"need at least one job, got {jobs}")
    files = iter_python_files(paths)
    rule_tuple = tuple(rules) if rules is not None else None
    merged, summaries = _run_phase1(files, rule_tuple, jobs)
    index = ProjectIndex(
        summaries, collect_summaries(reference_paths, jobs=jobs, reference=True)
    ).solve()
    for checker in all_checkers(rule_tuple):
        merged.extend(checker.check_project(index))
    return LintReport(
        findings=sorted(merged, key=Finding.sort_key),
        files_checked=len(files),
        call_graph=index.graph.to_dict(),
    )
