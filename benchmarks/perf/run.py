#!/usr/bin/env python3
"""One command that times the transcode path, the scoring path and the
simulator, end to end and layer by layer.

    python benchmarks/perf/run.py [--workload NAME] [--seed 7] [--repeats 3]
                                  [--trace] [--out FILE] [--trace-out FILE]

Each repeat of each workload runs in a fresh child interpreter, one at a
time (a closed loop with one caller: the next call starts when the
previous one returns).  End-to-end metrics are medians over the untraced
children; ``--trace`` adds one traced child per workload for the per-layer
numbers.  The last line of standard output is one JSON object; the exit
code is non-zero when any correctness check failed.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from host import NOISY_CALIB_DRIFT, HostLedger, calibrate_ms, fingerprint  # noqa: E402
from spans import Tracer, format_layer_table, write_chrome  # noqa: E402
from workloads import work_dir  # noqa: E402

DEFAULT_REPEATS = 3
CHILD_TIMEOUT_S = 150
INJECTIONS = ("flip_bitstream", "warm_miss", "broken_partition")
#: Off-path columns: the workloads that supply, at smoke size and on pinned
#: inputs, the end-to-end metrics a workload does not measure itself.
SENTINELS: Dict[str, List[str]] = {
    "codec_ladder": ["suite_score", "traffic_steady"],
    "suite_score": ["codec_ladder", "traffic_steady"],
    "traffic_steady": ["codec_ladder", "suite_score"],
    "traffic_chaos": ["codec_ladder", "suite_score"],
}
SENTINEL_SEED = 7


# ---------------------------------------------------------------------------
# The child: one fresh interpreter, one pass
# ---------------------------------------------------------------------------


def child_main(spec: Dict[str, object]) -> int:
    sys.path.insert(0, str(SRC))
    from workloads import SIZES, WORKLOAD_FUNCS

    tracer = Tracer(bool(spec["trace"]))
    workload, size_name = spec["workload"], spec["size"]
    setup, measure = WORKLOAD_FUNCS[workload]
    with tracer.span("bench.setup", "bench", workload):
        inputs = setup(int(spec["seed"]), SIZES[size_name], tracer)
    # CLOCK_MONOTONIC is system-wide, so the parent's reading taken just
    # before the spawn and this one are on the same clock.
    setup_s = time.monotonic() - float(spec["spawned_at"])
    # Do not start the timed pass on a disturbed host if waiting a little
    # can avoid it (set-up is over: the wait is in no metric).
    calib_before = calibrate_ms()
    wait_started = time.monotonic()
    while (spec["calib_limit_ms"] is not None and calib_before > spec["calib_limit_ms"]
           and time.monotonic() - wait_started < spec["max_wait_s"]):
        time.sleep(1.0)
        calib_before = calibrate_ms()
    waited_s = time.monotonic() - wait_started
    with tracer.span("bench.measure", "bench", workload):
        outcome = measure(inputs, tracer, spec["inject"]).as_dict()
    del inputs
    # Linux reports ru_maxrss in KiB.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calib_after = calibrate_ms()
    # After everything that is reported about the workload itself: one
    # smoke-size pass of each off-path workload.
    sentinels = {}
    untraced = Tracer(False)
    for part in spec["sentinels"]:
        part_setup, part_measure = WORKLOAD_FUNCS[part]
        sentinels[part] = part_measure(
            part_setup(SENTINEL_SEED, SIZES["smoke"], untraced), untraced, "").as_dict()
    result = {
        "outcome": outcome,
        "sentinels": sentinels,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "calib_ms": [calib_before, calib_after],
        "waited_s": waited_s,
        "layer_table": tracer.layer_table() if tracer.enabled else None,
        "chrome": tracer.to_chrome(workload) if tracer.enabled else None,
    }
    print(json.dumps(result))
    return 0


def spawn_child(workload: str, size: str, seed: int, trace: bool,
                inject: str) -> Dict[str, object]:
    ledger = HostLedger(work_dir() / "host.json")
    limit_ms = ledger.limit_ms()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # One busy thread at a time on a 2-core box, and stable hashing.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = "1"
    env["PYTHONHASHSEED"] = "0"
    spec = {"workload": workload, "size": size, "seed": seed, "trace": trace,
            "inject": inject, "sentinels": [] if trace else SENTINELS[workload],
            "calib_limit_ms": limit_ms, "max_wait_s": ledger.wait_allowance_s(),
            "spawned_at": time.monotonic()}
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(spec)],
        env=env, cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{workload} child exited with code {done.returncode}")
    child = json.loads(done.stdout.strip().splitlines()[-1])
    ledger.record(child["calib_ms"], child["waited_s"])
    child["disturbed"] = limit_ms is not None and max(child["calib_ms"]) > limit_ms
    return child


# ---------------------------------------------------------------------------
# The parent: children, medians, checks across repeats
# ---------------------------------------------------------------------------


def summarize(samples: List[float], better: str, off_path: bool) -> Dict[str, object]:
    """The reported value with min/max and the sample count.  No tail
    percentile: there are never ten samples beyond one here.

    A home metric is the median over the children.  An off-path sentinel
    exists to be steady, not to be cited: it reports the best of its few
    short samples, the one least disturbed by whatever else the host did."""
    if off_path:
        value, statistic = (min if better == "lower" else max)(samples), "best"
    else:
        value, statistic = median(samples), "median"
    return {"value": value, "statistic": statistic, "min": min(samples),
            "max": max(samples), "n": len(samples), "samples": samples}


def run_workload(name: str, opts: argparse.Namespace) -> Dict[str, object]:
    size = "smoke" if opts.smoke else "full"
    # --seconds is a cap, not a target: a slow host gets fewer children.
    budget_s = opts.seconds / 2.0 if (opts.trace and opts.seconds) else opts.seconds
    started = time.monotonic()
    runs: List[Dict[str, object]] = []
    while len(runs) < opts.repeats:
        runs.append(spawn_child(name, size, opts.seed, False, opts.inject))
        waited_s = sum(run["waited_s"] for run in runs)
        if budget_s is not None and time.monotonic() - started - waited_s >= budget_s:
            break
    traced = spawn_child(name, size, opts.seed, True, opts.inject) if opts.trace else None

    mains = [run["outcome"] for run in runs]
    checked = mains + ([traced["outcome"]] if traced else [])
    # Children that ran on a disturbed host are checked like the others but
    # give no timing, as long as a child that ran on a quiet host exists.
    quiet = [run["outcome"] for run in runs if not run["disturbed"]] or mains
    attempted = sum(o["attempted"] for o in checked)
    failed = sum(o["failed"] for o in checked)
    failures = [reason for o in checked for reason in o["failures"]]
    off_path = [outcome for run in runs for outcome in run["sentinels"].values()]
    for outcome in off_path:
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        failures += [f"off-path {reason}" for reason in outcome["failures"]]
    # A fixed seed must give identical outputs and identical work on every
    # repeat, traced or not.
    for kind in ("digests", "exact"):
        for key in sorted(set().union(*(o[kind] for o in checked))):
            values = {json.dumps(o[kind][key]) for o in checked if key in o[kind]}
            if len(values) > 1:
                failed += 1
                failures.append(f"{kind} {key} differs between repeats: {sorted(values)}")

    end_to_end: Dict[str, Dict[str, object]] = {}
    for metric in END_TO_END:
        if metric.name in ("setup_s", "peak_rss_mb"):
            samples, measured_at = [run[metric.name] for run in runs], size
        elif name in metric.home:
            samples = [o["metrics"][metric.name] for o in quiet if metric.name in o["metrics"]]
            measured_at = size
        else:
            samples = [o["metrics"][metric.name] for o in off_path
                       if metric.name in o["metrics"]]
            measured_at = "smoke (off-path)"
        if samples:
            end_to_end[metric.name] = {
                "unit": metric.unit, "clock": metric.clock, "better": metric.better,
                "bound": metric.bound, "size": measured_at,
                **summarize(samples, metric.better, measured_at != size)}

    calib = [run["calib_ms"] for run in runs + ([traced] if traced else [])]
    noisy = any(abs(after - before) / before > NOISY_CALIB_DRIFT for before, after in calib)
    record: Dict[str, object] = {
        "why": WORKLOADS[name], "size": size, "seed": opts.seed,
        "loop": "closed, 1 caller, 1 busy process", "repeats": len(runs),
        "disturbed": sum(run["disturbed"] for run in runs), "waited_s": waited_s,
        "ops_attempted": attempted, "ops_failed": failed,
        "correct": failed == 0 and len(end_to_end) == len(END_TO_END),
        "failures": failures,
        "end_to_end": end_to_end, "per_layer": {},
        "exact": dict(mains[0]["exact"]), "digests": dict(mains[0]["digests"]),
        "calib_ms": calib, "noisy": noisy,
        "layer_table": None, "chrome": None,
    }
    if traced:
        outcome = traced["outcome"]
        record["exact"].update(outcome["exact"])
        values = {**outcome["layer"], **outcome["exact"],
                  "host.calib_ms": traced["calib_ms"][0],
                  "bench.trace_overhead_ratio":
                      outcome["pass_wall_s"] / median(o["pass_wall_s"] for o in mains)}
        for metric in PER_LAYER:
            value = values.get(metric.name) if name in metric.home else None
            record["per_layer"][metric.name] = {
                "unit": metric.unit, "clock": metric.clock, "exact": metric.exact,
                "value": value}
        record["layer_table"] = traced["layer_table"]
        record["chrome"] = traced["chrome"]
    return record


def contract_object(record: Dict[str, object], trace: bool) -> Dict[str, object]:
    """The last-line JSON object for one workload.  A per-layer metric that
    does not apply to the workload, or whose probe could not resolve its
    symbol, is null in result files and -1 here (the line carries numbers
    only)."""
    if trace:
        metrics = {
            name: {"value": -1 if entry["value"] is None else entry["value"],
                   "unit": entry["unit"]}
            for name, entry in record["per_layer"].items()}
    else:
        metrics = {name: {"value": entry["value"], "unit": entry["unit"]}
                   for name, entry in record["end_to_end"].items()}
    return {"correct": record["correct"], "attempted": record["ops_attempted"],
            "failed": record["ops_failed"], "metrics": metrics}


def print_workload(name: str, record: Dict[str, object]) -> None:
    print(f"== {name} | seed {record['seed']} | {record['size']} size | "
          f"{record['repeats']} fresh untraced child(ren) | loop: {record['loop']} ==")
    print(f"   why: {record['why']}")
    print(f"   {'end-to-end metric':<22} {'value':>12} {'unit':<11} {'clock':<9} "
          f"{'min':>11} {'max':>11} {'n':>2}  statistic, measured at")
    for metric_name, entry in record["end_to_end"].items():
        print(f"   {metric_name:<22} {entry['value']:>12.4f} {entry['unit']:<11} "
              f"{entry['clock']:<9} {entry['min']:>11.4f} {entry['max']:>11.4f} "
              f"{entry['n']:>2}  {entry['statistic']}, {entry['size']}")
    if record["per_layer"]:
        print(f"   {'per-layer metric (traced child)':<44} {'value':>14} {'unit':<6} clock")
        for metric_name, entry in record["per_layer"].items():
            if entry["value"] is None:
                continue
            mark = " (exact)" if entry["exact"] else ""
            print(f"   {metric_name:<44} {entry['value']:>14.4f} {entry['unit']:<6} "
                  f"{entry['clock']}{mark}")
        missing = [metric.name for metric in PER_LAYER
                   if name in metric.home and record["per_layer"][metric.name]["value"] is None]
        if missing:
            print(f"   null (probe symbol unavailable): {', '.join(missing)}")
        print("   self time by layer (traced child):")
        print(format_layer_table(record["layer_table"], indent="     "))
    else:
        for key, value in record["exact"].items():
            print(f"   exact {key} = {value:g}")
    for key, value in record["digests"].items():
        if not key.startswith("bitstream."):
            print(f"   digest {key} = {value}")
    calib = ", ".join(f"{before:.1f}/{after:.1f}" for before, after in record["calib_ms"])
    print(f"   host.calib_ms before/after per child: {calib}"
          f"{'  ** noisy **' if record['noisy'] else ''}")
    if record["disturbed"] or record["waited_s"] >= 1.0:
        print(f"   host disturbed: {record['disturbed']} of {record['repeats']} untraced "
              f"child(ren) left out of the timings; waited {record['waited_s']:.1f} s "
              "for a quiet host")
    print(f"   ops_attempted {record['ops_attempted']}  ops_failed {record['ops_failed']}")
    for reason in record["failures"]:
        print(f"   FAILED {reason}")
    print()


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=7,
                        help="the only source of variation in the inputs")
    parser.add_argument("--repeats", type=int,
                        help=f"untraced children per workload (default {DEFAULT_REPEATS})")
    parser.add_argument("--seconds", type=float,
                        help="start no further child of a workload once this much "
                             "time has been spent measuring it")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="add one traced child per workload (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="one repeat at shrunk sizes (< 20 s in total)")
    parser.add_argument("--out", help="write the full result as JSON")
    parser.add_argument("--trace-out", help="write the traced children as Chrome-trace "
                                            "JSON (implies --trace)")
    parser.add_argument("--inject", choices=INJECTIONS, default="",
                        help="corrupt one output on purpose, to prove a check bites")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    opts = parser.parse_args(argv)
    if opts.trace_out:
        opts.trace = 1
    if opts.repeats is not None and opts.repeats < 1:
        parser.error("--repeats must be at least 1")
    if opts.seconds is not None and opts.seconds <= 0:
        parser.error("--seconds must be positive")
    if opts.repeats is None:
        opts.repeats = 1 if opts.smoke else DEFAULT_REPEATS
    return opts


def main(argv: Optional[List[str]] = None) -> int:
    opts = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found: the benchmark measures the "
              "repository it is checked out in", file=sys.stderr)
        return 2
    if opts.child:
        return child_main(json.loads(opts.child))
    for path in (opts.out, opts.trace_out):
        if path:
            Path(path).resolve().parent.mkdir(parents=True, exist_ok=True)
    # The "build": byte-compile once, so that the first child of a fresh
    # checkout pays the same imports as every later one (and any child at
    # all does where PYTHONDONTWRITEBYTECODE is set).
    for directory in (SRC, HERE):
        compileall.compile_dir(str(directory), quiet=2)

    names = [opts.workload] if opts.workload else list(WORKLOADS)
    records: Dict[str, Dict[str, object]] = {}
    for name in names:
        records[name] = run_workload(name, opts)
        print_workload(name, records[name])

    chromes = [record.pop("chrome") for record in records.values()]
    if opts.trace_out:
        write_chrome(opts.trace_out, chromes)
    noisy = any(record["noisy"] for record in records.values())
    if noisy:
        print("note: host calibration drifted by more than "
              f"{NOISY_CALIB_DRIFT:.0%} inside a child: this run is noisy")
    if opts.out:
        result = {
            "schema": 1,
            "fingerprint": {**fingerprint(ROOT), "seed": opts.seed,
                            "repeats": opts.repeats, "seconds": opts.seconds,
                            "smoke": opts.smoke},
            "noisy": noisy,
            "workloads": records,
        }
        with open(opts.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
            handle.write("\n")

    if opts.workload:
        last = contract_object(records[opts.workload], bool(opts.trace))
    else:
        objects = {name: contract_object(record, bool(opts.trace))
                   for name, record in records.items()}
        last = {"correct": all(o["correct"] for o in objects.values()),
                "attempted": sum(o["attempted"] for o in objects.values()),
                "failed": sum(o["failed"] for o in objects.values()),
                "workloads": objects}
    print(json.dumps(last))
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(3)
