"""Repository hygiene: no tracked build artifacts (mirrors the CI gate), no
clock or global RNG in ``src/``, and the codec's layering -- reconstruction
has one owner."""

import ast
import functools
import os
import re
import subprocess
import sys
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
    "edge_dc": "predict.py",
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


@functools.lru_cache(maxsize=None)
def _src_nodes():
    """``(path, node)`` of every AST node under ``src/`` (parsed once:
    several guards read it)."""
    return tuple(
        (path, node)
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
    )


def _calls_in_src():
    """``(path, node, called name)`` of every call expression under ``src/``."""
    return tuple(
        (path, node, getattr(node.func, "id", getattr(node.func, "attr", None)))
        for path, node in _src_nodes()
        if isinstance(node, ast.Call)
    )


def _imported(node):
    """The modules an import statement names (none for any other node)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return []


def _imports_in_src():
    """``(path:line, module)`` of every import statement under ``src/``."""
    for path, node in _src_nodes():
        for module in _imported(node):
            yield f"{path.relative_to(REPO_ROOT)}:{node.lineno}", module


def _offenders_in_src(predicate):
    """``path:line`` of every node under ``src/`` that ``predicate`` flags."""
    return [
        f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
        for path, node in _src_nodes()
        if predicate(node)
    ]


def _reads_clock(node):
    """Does ``node`` import ``time`` or ``datetime``?"""
    return any(
        module.split(".")[0] in ("time", "datetime") for module in _imported(node)
    )


def test_src_reads_no_clock():
    """Speed is the modelled ``seconds``; the code is timed from outside
    (``benchmarks/perf``).  A ``time`` or ``datetime`` import is how a host
    clock gets back in."""
    offenders = _offenders_in_src(_reads_clock)
    assert not offenders, offenders


def test_src_imports_no_scipy():
    """The package needs numpy only: its two image filters are numpy ports
    (``video/filters.py``), and importing scipy cost most of every run's
    start-up.  scipy is the tests' oracle, not a dependency."""
    offenders = [
        f"{where} {module}"
        for where, module in _imports_in_src()
        if module.split(".")[0] == "scipy"
    ]
    assert not offenders, offenders


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any ``import scipy...`` now raises ImportError
import repro, repro.cli
from repro.codec import decode, encode
from repro.metrics import ssim_video
from repro.video.denoise import denoise_video
from repro.video.synthesis import synthesize
clip = synthesize("natural", 32, 32, 2, 24.0, seed=1)
decoded = decode(encode(clip, "ultrafast", crf=28).bitstream)
assert len(decoded) == 2 and 0.0 < ssim_video(clip, decoded) <= 1.0
assert denoise_video(clip).resolution == clip.resolution
print("ok")
"""


def test_package_runs_without_scipy():
    """Synthesize -> encode -> decode -> SSIM -> denoise with scipy made
    unimportable: what an install without scipy can do."""
    result = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


#: The only ``np.random`` names ``src/`` may call: seeded streams.
_SEEDED_RNG = {"default_rng", "Generator", "SeedSequence"}
#: The constructors that fall back to OS entropy when given no seed.
_SEED_TAKERS = {"default_rng", "SeedSequence"}


def _dotted(node):
    """``a.b.c`` for an attribute chain on a name, else ``""``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id] + parts[::-1])


def _unseeded(call):
    """No seed argument, or a literal ``None``: both draw OS entropy."""
    seeds = call.args[:1] + [
        kw.value for kw in call.keywords if kw.arg in ("seed", "entropy")
    ]
    return all(isinstance(s, ast.Constant) and s.value is None for s in seeds)


def _reads_global_rng(node):
    """Does ``node`` touch a global stream or build an unseeded one?"""
    if isinstance(node, ast.Call):
        head, _, leaf = _dotted(node.func).rpartition(".")
        if head == "random":
            return True
        if head in ("np.random", "numpy.random") and leaf not in _SEEDED_RNG:
            return True
        # ``np.random.default_rng()`` and ``from numpy.random import
        # default_rng; default_rng()`` alike.
        return head in ("", "np.random", "numpy.random") and (
            leaf in _SEED_TAKERS and _unseeded(node)
        )
    if isinstance(node, ast.Import):
        return any(alias.name == "random" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "random" or (
            node.module == "numpy.random"
            and any(alias.name not in _SEEDED_RNG for alias in node.names)
        )
    return False


def test_src_reads_no_global_rng():
    """Every stream is an explicitly seeded ``default_rng``.  The global
    numpy and stdlib streams are hidden state left by whatever ran before,
    so nothing under ``src/`` draws from them -- or seeds them -- and no
    stream is built from OS entropy."""
    offenders = _offenders_in_src(_reads_global_rng)
    assert not offenders, offenders


@pytest.mark.parametrize(
    "scan, snippet",
    [
        (_reads_global_rng, "np.random.default_rng()"),
        (_reads_global_rng, "default_rng(None)"),
        (_reads_global_rng, "np.random.SeedSequence()"),
        (_reads_global_rng, "random.random()"),
        (_reads_clock, "from time import perf_counter"),
        (_reads_clock, "import datetime as dt"),
    ],
)
def test_hygiene_scans_flag_planted_offenders(scan, snippet):
    assert any(scan(node) for node in ast.walk(ast.parse(snippet)))


def test_hygiene_scans_pass_a_seeded_stream():
    tree = ast.parse("np.random.default_rng(seed)")
    assert not any(
        scan(node)
        for scan in (_reads_global_rng, _reads_clock)
        for node in ast.walk(tree)
    )


def test_reconstruction_kernels_have_one_caller():
    """Encoder and decoder rebuild pixels through codec/reconstruct.py only.

    Every listed kernel must still be a top-level ``def`` of its home
    module: an entry left behind by a rename would guard nothing."""
    missing = [
        f"{home}:{name}"
        for name, home in _RECONSTRUCTION_KERNELS.items()
        if name not in {
            node.name
            for node in ast.parse((CODEC / home).read_text()).body
            if isinstance(node, ast.FunctionDef)
        }
    ]
    assert not missing, missing
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


def _calls_in_function(path, function):
    """``(node, called name)`` of every call inside one top-level function."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            span = range(node.lineno, node.end_lineno + 1)
            break
    else:
        raise AssertionError(f"{function} not found in {path}")
    return [
        (call, name)
        for call_path, call, name in _calls_in_src()
        if call_path == path and call.lineno in span
    ]


@pytest.mark.parametrize(
    "function", ["estimate_motion", "_full_search", "_log_search", "_subpel_refine"]
)
def test_motion_search_runs_in_integers(function):
    """Codec planes are on the 8-bit grid, so every SAD is exact in int16
    differences and int32 sums.  The float64 search it replaced gathered its
    windows through a per-call int64 index grid (``_gather_windows``, also
    under ``_interp_windows``): 1.73 of a 4.38 s cold scoring pass on a
    2-core host."""
    offenders = [
        f"{node.lineno} {name}"
        for node, name in _calls_in_function(CODEC / "motion.py", function)
        if name in ("_gather_windows", "_interp_windows")
        or any(getattr(sub, "id", getattr(sub, "attr", None)) == "float64"
               for sub in ast.walk(node))
    ]
    assert not offenders, offenders


def test_log_search_clamps_without_np_clip():
    """``np.clip``'s Python-level wrapper ran 65 140 times in one cold
    scoring pass; two in-place ``maximum``/``minimum`` calls do its work."""
    calls = _calls_in_function(CODEC / "motion.py", "_log_search")
    assert not [node.lineno for node, name in calls if name == "clip"]


def test_loop_filter_has_no_per_edge_loop():
    """Edges are at least 4 px apart, so one direction filters as one batch;
    the per-edge Python loop was most of ``finish_frame``."""
    loops = [
        node.lineno
        for node in ast.walk(ast.parse((CODEC / "deblock.py").read_text()))
        if isinstance(node, (ast.For, ast.While))
    ]
    assert not loops, loops


def test_bit_layer_works_in_codewords():
    """``pack_bits`` expanded every bit into five ``int64`` arrays
    (``np.repeat``), and ``scan_ue_array`` bisected once per codeword in a
    Python loop: 0.53 of 1.20 s decoding the 12 ``codec_ladder`` cells."""
    bitio = CODEC / "entropy_coding" / "bitio.py"
    offenders = [
        f"{function}:{node.lineno} {name}"
        for function in ("pack_bits", "_pack")
        for node, name in _calls_in_function(bitio, function)
        if name == "repeat"
    ]
    method = _methods(bitio, "BitReader")["scan_ue_array"]
    span = range(method.lineno, method.end_lineno + 1)
    offenders += [
        f"scan_ue_array:{node.lineno} {name}"
        for path, node, name in _calls_in_src()
        if path == bitio and node.lineno in span and name == "bisect_left"
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
