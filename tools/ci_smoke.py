#!/usr/bin/env python3
"""Parameterized determinism smokes: one runner, a table of cases.

CI used to carry five copy-pasted shell blocks that all did the same
thing -- run a command twice (or under flags that must not matter, like
``--jobs 4``), ``cmp`` the outputs, and spot check a benchmark record.
The traffic smoke never compared its record against the committed
``BENCH_traffic.json``, which is exactly how that baseline silently went
stale.  This runner replaces the copies with data:

* every smoke's variants must produce **byte-identical stdout**;
* every smoke that emits a ``BENCH_*.json`` must **byte-match the
  committed baseline** at the repo root (regenerate the file in the PR
  when the change is intentional);
* record-level assertions (the scheduler must beat EWMA, the codec
  digest must exist) live next to the smoke definition.

Usage::

    python tools/ci_smoke.py            # run every smoke
    python tools/ci_smoke.py sched      # run a subset by name
    python tools/ci_smoke.py --list     # show the table
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent

_REPRO = (sys.executable, "-m", "repro")

_VLINT_WP = _REPRO + ("lint", "--whole-program", "--reference", "tests")


@dataclass(frozen=True)
class Smoke:
    """One determinism smoke.

    Attributes:
        name: Selector used on the command line and in the summary.
        variants: Commands to run, in order.  Every variant must exit 0
            and print byte-identical stdout; a single variant just
            asserts success.
        baseline: Committed ``BENCH_*.json`` at the repo root.  Variant
            0 gets ``--bench-out <scratch>/<baseline>`` appended, and
            the emitted file must byte-match the committed one.
        checks: Extra assertions over the parsed benchmark record.
    """

    name: str
    variants: Tuple[Tuple[str, ...], ...]
    baseline: Optional[str] = None
    checks: Optional[Callable[[dict], None]] = None


def _check_traffic(record: dict) -> None:
    assert record["digest"], "bench record is missing the report digest"
    assert record["metrics"]["throughput_rps"] > 0, "no requests completed"


def _check_codec(record: dict) -> None:
    assert record["digest"], "bench record is missing the codec digest"
    assert record["metrics"]["bitstream_bytes"] > 0, "empty bitstream"


def _check_chaos(record: dict) -> None:
    arms = record["arms"]
    deltas = record["deltas"]
    assert deltas["hit_rate_recovery_vs_naive"] > 0, (
        "recovery must beat naive on deadline-hit rate under chaos; got "
        f"{deltas['hit_rate_recovery_vs_naive']}"
    )
    assert deltas["availability_recovery_vs_naive"] > 0, (
        "recovery must beat naive on fleet availability; got "
        f"{deltas['availability_recovery_vs_naive']}"
    )
    for name in ("naive", "recovery"):
        assert arms[name]["availability"] > 0, (
            f"the {name} arm reports zero availability -- the chaos "
            "profile killed the entire run"
        )
        assert arms[name]["reclaimed_busy"] == 0, (
            f"the {name} arm reclaimed a busy replica during scale-down; "
            "drain-before-retire is an invariant"
        )
    # Resilience must come from recovery machinery, not from a blank
    # check: the bound keeps hedging/redelivery spend honest.
    extra = deltas["cost_recovery_vs_naive_usd"]
    budget = 0.25 * arms["naive"]["total_cost_usd"]
    assert extra <= budget, (
        f"recovery overspends naive by ${extra}; bound is ${budget}"
    )


def _check_sched(record: dict) -> None:
    deltas = record["deltas"]
    assert deltas["live_hit_rate_improvement"] > 0, (
        "the predictor arm must improve the Live deadline-hit rate over "
        f"EWMA; got {deltas['live_hit_rate_improvement']}"
    )
    assert deltas["cost_delta_usd"] <= 0, (
        "the predictor arm must not cost more than EWMA; got "
        f"+${deltas['cost_delta_usd']}"
    )
    mape = record["arms"]["predictor"]["live_prediction_mape"]
    assert mape <= 0.05, f"predictor Live MAPE {mape} exceeds the 5% bound"


SMOKES = (
    # Whole-program vlint must render identically serial and parallel.
    Smoke(
        name="vlint-parallel",
        variants=(
            _VLINT_WP + ("--json", "src"),
            _VLINT_WP + ("--jobs", "4", "--json", "src"),
        ),
    ),
    # Fixed-seed structured fuzzing: zero oracle violations, twice.
    Smoke(
        name="fuzz",
        variants=(
            _REPRO + ("fuzz", "--seed", "0", "--budget", "500"),
            _REPRO + ("fuzz", "--seed", "0", "--budget", "500"),
        ),
    ),
    # Traffic SLO report: byte-stable across runs AND pinned to the
    # committed BENCH_traffic.json.
    Smoke(
        name="traffic",
        variants=(
            _REPRO + ("traffic", "--seed", "7", "--duration", "300", "--json"),
            _REPRO + ("traffic", "--seed", "7", "--duration", "300", "--json"),
        ),
        baseline="BENCH_traffic.json",
        checks=_check_traffic,
    ),
    # Codec benchmark record (timings omitted): byte-stable and pinned.
    Smoke(
        name="codec-bench",
        variants=(
            _REPRO + ("bench", "--json", "--deterministic"),
            _REPRO + ("bench", "--json", "--deterministic"),
        ),
        baseline="BENCH_codec.json",
        checks=_check_codec,
    ),
    # Fleet chaos three-arm comparison: byte-stable, pinned, and the
    # recovery policy must beat naive on hits AND availability at a
    # bounded extra compute spend.
    Smoke(
        name="chaos",
        variants=(
            _REPRO
            + (
                "traffic",
                "--chaos",
                "full",
                "--seed",
                "7",
                "--duration",
                "300",
                "--json",
            ),
            _REPRO
            + (
                "traffic",
                "--chaos",
                "full",
                "--seed",
                "7",
                "--duration",
                "300",
                "--json",
            ),
        ),
        baseline="BENCH_chaos.json",
        checks=_check_chaos,
    ),
    # Deadline scheduler vs EWMA at the stress profile: byte-stable,
    # pinned, and the predictor must win on hits at equal-or-lower cost.
    Smoke(
        name="sched",
        variants=(
            _REPRO + ("sched", "--json"),
            _REPRO + ("sched", "--json"),
        ),
        baseline="BENCH_sched.json",
        checks=_check_sched,
    ),
)


def _run(argv: Tuple[str, ...]) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        argv,
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    if proc.returncode != 0:
        sys.stderr.buffer.write(proc.stderr)
        raise SystemExit(
            f"smoke command failed ({proc.returncode}): {' '.join(argv)}"
        )
    return proc.stdout


def run_smoke(smoke: Smoke) -> None:
    with tempfile.TemporaryDirectory(prefix=f"smoke-{smoke.name}-") as tmp:
        scratch = Path(tmp)
        outputs = []
        for index, variant in enumerate(smoke.variants):
            argv = variant
            if smoke.baseline and index == 0:
                argv = variant + (
                    "--bench-out",
                    str(scratch / smoke.baseline),
                )
            outputs.append(_run(argv))
        for index, output in enumerate(outputs[1:], start=1):
            if output != outputs[0]:
                raise SystemExit(
                    f"{smoke.name}: variant {index} stdout differs from "
                    "variant 0 -- the run is not deterministic"
                )
        if smoke.baseline:
            fresh = (scratch / smoke.baseline).read_bytes()
            committed_path = REPO / smoke.baseline
            committed = (
                committed_path.read_bytes() if committed_path.exists() else b""
            )
            if fresh != committed:
                (REPO / f"{smoke.baseline}.fresh").write_bytes(fresh)
                raise SystemExit(
                    f"{smoke.name}: output drifted from the committed "
                    f"{smoke.baseline} baseline; if the change is "
                    f"intentional, replace it with the emitted "
                    f"{smoke.baseline}.fresh and explain the drift in "
                    "the PR"
                )
            if smoke.checks is not None:
                smoke.checks(json.loads(fresh.decode("utf-8")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "names",
        nargs="*",
        help="smokes to run (default: all)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list smokes and exit"
    )
    args = parser.parse_args(argv)
    by_name = {smoke.name: smoke for smoke in SMOKES}
    if args.list:
        for smoke in SMOKES:
            pinned = f" [pins {smoke.baseline}]" if smoke.baseline else ""
            print(f"{smoke.name}: {len(smoke.variants)} variants{pinned}")
        return 0
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(
            f"unknown smoke(s) {unknown}; known: {sorted(by_name)}"
        )
    selected = (
        [by_name[name] for name in args.names] if args.names else list(SMOKES)
    )
    for smoke in selected:
        run_smoke(smoke)
        print(f"{smoke.name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
