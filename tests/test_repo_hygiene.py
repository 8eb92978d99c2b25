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
