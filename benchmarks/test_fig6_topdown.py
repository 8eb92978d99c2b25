"""Figure 6: Top-Down cycle-accounting distribution over the suite.

Encodes every suite video with tracing, computes the five Top-Down
buckets, and prints their distribution (min/median/max, the paper's
boxplot content).  Asserted shape: retiring + core-bound dominate
(~60%+), with front-end, bad-speculation and memory each a modest
minority -- the paper's "better than the typical datacenter workload"
observation.
"""

import numpy as np
from conftest import emit

from repro.uarch.cpu import profile_encode
from repro.uarch.topdown import top_down

BUCKETS = ("FE", "BAD", "BE/Mem", "BE/Core", "RET")


def _compute(suite):
    rows = []
    for entry in suite:
        profile = profile_encode(entry.video, config="medium", crf=23)
        breakdown = top_down(profile.counters, profile).as_dict()
        rows.append((entry.name, entry.entropy, breakdown))
    return rows


def _render(rows):
    lines = [
        f"{'video':<14} {'entropy':>8} " + " ".join(f"{b:>8}" for b in BUCKETS)
    ]
    for name, entropy, breakdown in rows:
        cells = " ".join(f"{breakdown[b]:>8.3f}" for b in BUCKETS)
        lines.append(f"{name:<14} {entropy:>8.1f} {cells}")
    lines.append("")
    lines.append("distribution (min / median / max):")
    for bucket in BUCKETS:
        values = [r[2][bucket] for r in rows]
        lines.append(
            f"  {bucket:<8} {min(values):.3f} / {np.median(values):.3f} / "
            f"{max(values):.3f}"
        )
    return "\n".join(lines)


def test_fig6_topdown(benchmark, suite, results_dir):
    rows = benchmark.pedantic(_compute, args=(suite,), rounds=1, iterations=1)
    emit(results_dir, "fig6_topdown", _render(rows))

    medians = {
        bucket: float(np.median([r[2][bucket] for r in rows]))
        for bucket in BUCKETS
    }
    # Every video's buckets sum to 1.
    for _, _, breakdown in rows:
        assert sum(breakdown.values()) == 1.0 or abs(sum(breakdown.values()) - 1) < 1e-9
    # The paper's shape: most time retires or waits on functional units.
    assert medians["RET"] + medians["BE/Core"] > 0.55
    # Front end, speculation and memory are real but minority costs.
    for bucket in ("FE", "BAD", "BE/Mem"):
        assert medians[bucket] < 0.35
