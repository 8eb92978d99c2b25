"""tools/ci_smoke.py: one failing smoke must not hide the others."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ci_smoke.py"


@pytest.fixture
def ci_smoke(monkeypatch):
    spec = importlib.util.spec_from_file_location("ci_smoke", _PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules.
    monkeypatch.setitem(sys.modules, "ci_smoke", module)
    spec.loader.exec_module(module)
    return module


def test_every_failing_smoke_is_reported(ci_smoke, monkeypatch, capsys):
    python = (sys.executable, "-c")
    monkeypatch.setattr(ci_smoke, "SMOKES", (
        ci_smoke.Smoke("crashes", variants=(python + ("raise SystemExit(3)",),)),
        ci_smoke.Smoke("passes", variants=(python + ("print(1)",),)),
        ci_smoke.Smoke(
            "drifts", variants=(python + ("print(1)",),), stdout="2\n"
        ),
    ))
    assert ci_smoke.main([]) == 1
    out, err = capsys.readouterr()
    assert out == "passes: ok\n"
    assert "crashes: FAILED: smoke command failed (3)" in err
    assert "drifts: FAILED: stdout drifted" in err
    assert err.endswith("2 of 3 smokes failed: crashes, drifts\n")
