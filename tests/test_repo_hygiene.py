"""Repository hygiene: no tracked build artifacts (mirrors the CI gate), and
the codec's layering -- reconstruction has one owner."""

import ast
import re
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
_ARTIFACT = re.compile(r"(^|/)__pycache__/|\.py[cod]$|\.egg-info")


def _tracked_files():
    try:
        output = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not running inside a git checkout")
    return output.splitlines()


def test_no_compiled_artifacts_tracked():
    offenders = [path for path in _tracked_files() if _ARTIFACT.search(path)]
    assert not offenders, (
        "compiled artifacts are tracked; `git rm --cached` them and rely on "
        f".gitignore: {offenders[:5]}"
    )


def test_gitignore_covers_bytecode():
    gitignore = REPO_ROOT / ".gitignore"
    assert gitignore.is_file(), ".gitignore is missing"
    rules = gitignore.read_text()
    assert "__pycache__/" in rules
    assert "*.py[cod]" in rules


# -- codec layering -----------------------------------------------------------

CODEC = REPO_ROOT / "src" / "repro" / "codec"
#: The pixel-producing kernels of reconstruction, and where each is defined.
_RECONSTRUCTION_KERNELS = {
    "motion_compensate": "motion.py",
    "motion_compensate_chroma": "motion.py",
    "deblock_plane": "deblock.py",
    "dc_predict_batch": "predict.py",
}


def test_decoder_does_not_import_the_encoder():
    tree = ast.parse((CODEC / "decoder.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not [name for name in imported if "encoder" in name], imported


def _calls_in_src():
    """``(path, node, called name)`` of every call expression under ``src/``."""
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                yield path, node, name


def test_reconstruction_kernels_have_one_caller():
    """Encoder and decoder rebuild pixels through codec/reconstruct.py only."""
    offenders = []
    for path, node, name in _calls_in_src():
        home = _RECONSTRUCTION_KERNELS.get(name)
        if home and path not in (CODEC / "reconstruct.py", CODEC / home):
            offenders.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno} {name}")
    assert not offenders, offenders


def test_no_einsum_path_search_per_call():
    """``einsum(..., optimize=...)`` re-runs a Python contraction-order search
    on every call (111 us against 11 us for the matmuls it picked): on the
    codec's small per-wavefront batches that was a fifth of encode time."""
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
        for path, node, name in _calls_in_src()
        if name == "einsum" and any(kw.arg == "optimize" for kw in node.keywords)
    ]
    assert not offenders, offenders


# -- traffic hot path ---------------------------------------------------------

TRAFFIC = REPO_ROOT / "src" / "repro" / "traffic"


def _methods(path, class_name):
    """``{name: FunctionDef}`` of one class's methods in one module."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return {
                item.name: item
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
    raise AssertionError(f"{class_name} not found in {path}")


def test_fleet_census_scans_the_live_set_not_every_replica():
    """``FleetState.workers`` keeps every replica ever spawned (1 023 in a
    12 000 s chaos run, at most 10 alive at once); scanning it per event
    was nearly half of that run.  Only ``spawn`` (which registers) may
    touch it."""
    offenders = [
        f"FleetState.{name}:{node.lineno}"
        for name, method in _methods(TRAFFIC / "fleet.py", "FleetState").items()
        if name not in ("__init__", "spawn")
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute)
        and node.attr == "workers"
        and getattr(node.value, "id", None) == "self"
    ]
    assert not offenders, offenders


def test_hedge_delay_reads_the_pool_without_sorting_it():
    """The hedge pool is kept sorted by ``insort``; re-sorting the whole
    growing pool on every launch was about half of the simulator's own
    time on the chaos path."""
    method = _methods(TRAFFIC / "simulator.py", "TrafficSimulator")["_hedge_delay_s"]
    span = range(method.lineno, method.end_lineno + 1)
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{node.lineno} {name}"
        for path, node, name in _calls_in_src()
        if path == TRAFFIC / "simulator.py"
        and node.lineno in span
        and name in ("sorted", "sort", "percentile")
    ]
    assert not offenders, offenders


# -- vlint: one VL006 policy ---------------------------------------------------

ANALYSIS = REPO_ROOT / "src" / "repro" / "analysis"
#: The VL006 policy: scope, decode-name/class rule, allowed raises.
_VL006_POLICY = (
    "CODEC_PACKAGE",
    "in_codec",
    "_DECODE_PREFIXES",
    "_DECODE_CLASS_TAGS",
    "is_decode_path",
    "DECODE_ALLOWED",
)


def _top_level_definitions(path):
    """Names a module binds at top level (defs, classes, assignments)."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(
                t.id for t in node.targets if isinstance(t, ast.Name)
            )
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names.append(node.target.id)
    return names


def test_vl006_policy_is_defined_once():
    """The decode-path criteria and allowed set once lived in three places
    that had drifted apart (two allow-lists disagreed on AssertionError)."""
    defined = [
        (name, path.relative_to(REPO_ROOT).as_posix())
        for path in sorted(ANALYSIS.rglob("*.py"))
        for name in _top_level_definitions(path)
        if name in _VL006_POLICY
    ]
    counts = {name: [p for n, p in defined if n == name] for name in _VL006_POLICY}
    assert all(len(paths) == 1 for paths in counts.values()), counts


def test_summaries_do_not_import_checkers():
    """The IR sits below the rules: phase 1 must not depend on a checker."""
    tree = ast.parse((ANALYSIS / "summaries.py").read_text())
    imported = [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
    ] + [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ]
    offenders = [m for m in imported if m.startswith("repro.analysis.checkers")]
    assert not offenders, offenders
