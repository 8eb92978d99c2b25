#!/usr/bin/env python3
"""Compare result files of two commits: the A/B rule for a small sandbox.

    python benchmarks/perf/compare.py A1.json B1.json [A2.json B2.json ...]

Files are ``run.py --out`` results given as (parent, change) pairs, in the
order they were run (alternate which side runs first).  With several pairs
each file contributes its reported value; with one pair the repeats inside the
two files are paired up instead.  Every (metric, workload) gets its own
row:

* ``win``        the change is better in at least 9/10 of >= 10 pairs
                 (ties count for neither side) *and* the medians differ by
                 more than the parent's own inter-quartile spread;
* ``unresolved`` the run-to-run spread of either side exceeds the metric's
                 bound, so "no change" cannot be told from a regression --
                 unless every run of the change beats every run of the
                 parent, which reads ``better``;
* ``REGRESSED``  the change's median is worse than the parent's by more
                 than the bound;
* ``better (unproven)``  better by more than the bound, but without the
                 pairs the ``win`` rule asks for;
* ``unchanged``  otherwise.

Every ratio is printed with its base.  Exact counts and simulated-
statistics digests are diffed as well: a speed-only change moves none.
Files from different hosts or settings are refused without ``--force``.
Exit code 1 when anything regressed or an exact count or digest moved.
"""

from __future__ import annotations

import argparse
import json
import sys
from statistics import median, quantiles
from typing import Dict, List, Optional, Tuple

FINGERPRINT_KEYS = ("nproc", "cpu_model", "python", "numpy", "scipy",
                    "seed", "repeats", "seconds", "smoke")
MIN_PAIRS_FOR_WIN = 10
WIN_FRACTION = 0.9


def quartiles(values: List[float]) -> Tuple[float, float]:
    """(q1, q3); a single value has no spread."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def judge(a: List[float], b: List[float], better: str, bound: float) -> Dict[str, object]:
    """Apply the rule to paired values of one (metric, workload)."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - a) > 0: b is worse
    a_med, b_med = median(a), median(b)
    (a_q1, a_q3), (b_q1, b_q3) = quartiles(a), quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    worse_by = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    spread = max((a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
                 (b_q3 - b_q1) / abs(b_med) if b_med else 0.0)
    if (len(pairs) >= MIN_PAIRS_FOR_WIN and wins >= WIN_FRACTION * len(pairs)
            and abs(b_med - a_med) > a_q3 - a_q1):
        verdict = "win"
    elif spread > bound:
        clean_sweep = all(sign * (y - x) < 0 for x in a for y in b)
        verdict = "better" if clean_sweep else "unresolved"
    elif worse_by > bound:
        verdict = "REGRESSED"
    elif worse_by < -bound:
        verdict = "better (unproven)"
    else:
        verdict = "unchanged"
    return {"a_median": a_med, "a_q1": a_q1, "a_q3": a_q3,
            "b_median": b_med, "b_q1": b_q1, "b_q3": b_q3,
            "ratio": b_med / a_med if a_med else float("nan"),
            "wins": wins, "pairs": len(pairs),
            "worse_by": worse_by, "spread": spread, "verdict": verdict}


def metric_values(files: List[Dict[str, object]], workload: str, metric: str) -> List[float]:
    entries = [f["workloads"][workload]["end_to_end"][metric] for f in files]
    if len(entries) == 1:
        return list(entries[0]["samples"])
    return [entry["value"] for entry in entries]


def fingerprint_mismatches(files: List[Dict[str, object]]) -> List[str]:
    first = files[0]["fingerprint"]
    problems = []
    for index, result in enumerate(files[1:], start=2):
        for key in FINGERPRINT_KEYS:
            if result["fingerprint"].get(key) != first.get(key):
                problems.append(f"file {index}: {key} = {result['fingerprint'].get(key)!r}, "
                                f"file 1 has {first.get(key)!r}")
    return problems


def moved(kind: str, a_files, b_files, workload: str) -> List[str]:
    """Exact counts / digests that differ between any parent and change."""
    lines = []
    a_first = a_files[0]["workloads"][workload][kind]
    for key in sorted(a_first):
        values_a = {json.dumps(f["workloads"][workload][kind].get(key)) for f in a_files}
        values_b = {json.dumps(f["workloads"][workload][kind].get(key)) for f in b_files
                    if key in f["workloads"][workload][kind]}
        if values_b and values_a != values_b:
            lines.append(f"{workload}: {kind} {key} moved: "
                         f"{' | '.join(sorted(values_a))} -> {' | '.join(sorted(values_b))}")
    return lines


def compare(a_files, b_files) -> Tuple[List[str], bool]:
    """Report lines, and whether anything regressed or moved."""
    lines = [f"{'workload':<15} {'metric':<19} {'A median [q1..q3]':<32} "
             f"{'B median [q1..q3]':<32} {'B/A (base A)':<26} {'B won':<6} verdict"]
    bad = False
    workloads = [w for w in a_files[0]["workloads"]
                 if all(w in f["workloads"] for f in a_files + b_files)]
    for workload in workloads:
        for metric, entry in a_files[0]["workloads"][workload]["end_to_end"].items():
            try:
                a = metric_values(a_files, workload, metric)
                b = metric_values(b_files, workload, metric)
            except KeyError:
                lines.append(f"{workload:<15} {metric:<19} missing in a file")
                bad = True
                continue
            row = judge(a, b, entry["better"], entry["bound"])
            bad = bad or row["verdict"] == "REGRESSED"
            ratio = f"{row['ratio']:.3f} (A={row['a_median']:.4g} {entry['unit']})"
            won = f"{row['wins']}/{row['pairs']}"
            lines.append(
                f"{workload:<15} {metric:<19} "
                f"{_cell(row['a_median'], row['a_q1'], row['a_q3']):<32} "
                f"{_cell(row['b_median'], row['b_q1'], row['b_q3']):<32} "
                f"{ratio:<26} {won:<6} {row['verdict']} (bound {entry['bound']:.0%}, "
                f"spread {row['spread']:.1%}, {entry['size']})")
    changed = [line for workload in workloads for kind in ("exact", "digests")
               for line in moved(kind, a_files, b_files, workload)]
    lines += changed or ["exact counts and digests: none moved"]
    return lines, bad or bool(changed)


def _cell(mid: float, q1: float, q3: float) -> str:
    return f"{mid:.4g} [{q1:.4g}..{q3:.4g}]"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="A1.json B1.json [A2.json B2.json ...]")
    parser.add_argument("--force", action="store_true",
                        help="compare even when host fingerprints or settings differ")
    opts = parser.parse_args(argv)
    if len(opts.files) < 2 or len(opts.files) % 2:
        parser.error("give result files as (parent, change) pairs")
    results = []
    for path in opts.files:
        with open(path, encoding="utf-8") as handle:
            results.append(json.load(handle))
    problems = fingerprint_mismatches(results)
    if problems:
        for problem in problems:
            print(f"fingerprint differs: {problem}", file=sys.stderr)
        if not opts.force:
            print("error: refusing to compare across differing fingerprints "
                  "(use --force)", file=sys.stderr)
            return 2
    a_files, b_files = results[0::2], results[1::2]
    for side, files in (("A (parent)", a_files), ("B (change)", b_files)):
        commits = sorted({str(f["fingerprint"].get("commit")) for f in files})
        print(f"{side}: {len(files)} file(s), commit {', '.join(commits)}")
    if any(result.get("noisy") for result in results):
        print("note: at least one file is flagged noisy (host calibration drifted)")
    lines, bad = compare(a_files, b_files)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
