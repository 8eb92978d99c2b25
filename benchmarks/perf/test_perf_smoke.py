"""The benchmark's own test: run it at smoke size and prove its checks bite.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf`` (about a
minute); tier-1 (``testpaths = ["tests"]``) does not collect it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    done = subprocess.run([sys.executable, str(script), *args], cwd=str(cwd),
                          capture_output=True, text=True, timeout=300, check=False)
    lines = done.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done, last


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf")
    done, last = run_bench("--smoke", "--trace", "--out", str(out / "result.json"),
                           "--trace-out", str(out / "trace.json"))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    trace = json.loads((out / "trace.json").read_text(encoding="utf-8"))
    return {"stdout": done.stdout, "last": last, "result": result, "trace": trace,
            "path": out / "result.json"}


def test_benchmark_json_matches_the_catalog():
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert SPEC["command"] == ["python3", "benchmarks/perf/run.py"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == WORKLOADS
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert SPEC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END]
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
    assert len(END_TO_END) == 8 and len(PER_LAYER) == 80
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert max(m.bound for m in END_TO_END) == SPEC["end_to_end"][0]["bound"] <= 0.25


def test_every_declared_metric_is_reported_on_every_workload(smoke):
    workloads = smoke["result"]["workloads"]
    assert set(workloads) == set(WORKLOADS)
    for name, record in workloads.items():
        assert record["correct"] and record["ops_failed"] == 0, record["failures"]
        assert record["ops_attempted"] >= 1
        for metric in END_TO_END:
            entry = record["end_to_end"][metric.name]
            assert entry["unit"] == metric.unit and entry["n"] >= 1
            assert entry["value"] > 0, (name, metric.name)
            assert f" {metric.name} " in smoke["stdout"]
        for metric in PER_LAYER:
            entry = record["per_layer"][metric.name]
            assert entry["unit"] == metric.unit
            if name in metric.home:
                assert entry["value"] is not None, (name, metric.name)
            else:
                assert entry["value"] is None
    objects = smoke["last"]["workloads"]
    for name in WORKLOADS:
        assert set(objects[name]["metrics"]) == {m.name for m in PER_LAYER}


def test_result_file_carries_fingerprint_and_noisy_flag(smoke):
    fingerprint = smoke["result"]["fingerprint"]
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "commit",
                "seed", "repeats", "seconds", "smoke"):
        assert key in fingerprint
    assert isinstance(smoke["result"]["noisy"], bool)
    for record in smoke["result"]["workloads"].values():
        assert all(len(pair) == 2 for pair in record["calib_ms"])


def test_each_workload_bypasses_the_layer_it_should(smoke):
    workloads = smoke["result"]["workloads"]
    steady, chaos = workloads["traffic_steady"], workloads["traffic_chaos"]
    assert steady["per_layer"]["traffic.fleet_calls"]["value"] == 0
    assert steady["per_layer"]["pipeline.scheduler_calls"]["value"] == 0
    assert chaos["per_layer"]["traffic.fleet_calls"]["value"] > 0
    assert chaos["per_layer"]["pipeline.scheduler_calls"]["value"] > 0
    assert workloads["codec_ladder"]["exact"]["codec.sad_evals.intra_cells"] == 0
    assert workloads["codec_ladder"]["exact"]["codec.sad_evals"] > 0
    assert workloads["suite_score"]["exact"]["exec.hit_ratio_warm"] == 1.0


def test_chrome_trace_has_one_track_per_layer(smoke):
    events = smoke["trace"]["traceEvents"]
    tracks = {(e["pid"], e["args"]["name"]) for e in events if e["name"] == "thread_name"}
    spans = [e for e in events if e["ph"] == "X"]
    assert {(e["pid"], e["cat"]) for e in spans} == tracks
    assert {"codec", "core", "traffic", "pipeline"} <= {layer for _, layer in tracks}
    assert all(e["dur"] >= 0 and "rid" in e["args"] and "parent" in e["args"] for e in spans)
    assert "layer" in smoke["stdout"] and "bench.trace_overhead_ratio" in smoke["stdout"]


@pytest.mark.parametrize("trace, declared", [("0", END_TO_END), ("1", PER_LAYER)])
def test_driver_form_prints_exactly_the_declared_metrics(trace, declared):
    done, last = run_bench("--workload", "traffic_chaos", "--seed", "3", "--seconds", "1",
                           "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr[-2000:]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m.name for m in declared]
    for metric in declared:
        entry = last["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload, injection", [
    ("codec_ladder", "flip_bitstream"),
    ("suite_score", "warm_miss"),
    ("traffic_steady", "broken_partition"),
])
def test_checks_bite(workload, injection):
    done, last = run_bench("--workload", workload, "--smoke", "--inject", injection)
    assert done.returncode != 0
    assert last["correct"] is False and last["failed"] >= 1
    assert "FAILED" in done.stdout


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "results"))
    done, last = run_bench("--workload", "codec_ladder", "--seed", "1", "--seconds", "1",
                           "--trace", "0", cwd=tmp_path,
                           script=tmp_path / "benchmarks" / "perf" / "run.py")
    assert done.returncode != 0 and last is None and done.stdout.strip() == ""


def test_compare_rule():
    base = [100.0 + i for i in range(10)]
    win = compare.judge(base, [v * 0.8 for v in base], "lower", 0.10)
    assert win["verdict"] == "win" and win["wins"] == 10
    few = compare.judge(base[:3], [v * 0.8 for v in base[:3]], "lower", 0.10)
    assert few["verdict"] == "better (unproven)"  # fewer than ten pairs never wins
    assert compare.judge(base, [v * 1.2 for v in base], "lower", 0.10)["verdict"] == "REGRESSED"
    assert compare.judge(base, [v * 0.8 for v in base], "higher", 0.10)["verdict"] == "REGRESSED"
    assert compare.judge(base, [v * 1.05 for v in base], "lower", 0.10)["verdict"] == "unchanged"
    wide = [100.0, 140.0, 90.0, 130.0, 95.0, 150.0, 100.0, 135.0, 92.0, 145.0]
    assert compare.judge(wide, list(reversed(wide)), "lower", 0.10)["verdict"] == "unresolved"
    assert compare.judge(wide[:9], [v * 0.5 for v in wide[:8]] + [89.0], "lower",
                         0.10)["verdict"] == "better"


def test_compare_refuses_differing_fingerprints(smoke, tmp_path, capsys):
    other = json.loads(smoke["path"].read_text(encoding="utf-8"))
    other["fingerprint"]["nproc"] = 64
    other["workloads"]["traffic_steady"]["digests"]["slo_report"] = "moved"
    path = tmp_path / "other.json"
    path.write_text(json.dumps(other), encoding="utf-8")
    assert compare.main([str(smoke["path"]), str(path)]) == 2
    assert compare.main([str(smoke["path"]), str(path), "--force"]) == 1
    assert "slo_report moved" in capsys.readouterr().out
    assert compare.main([str(smoke["path"]), str(smoke["path"])]) == 0
