"""Names, units and directions of every workload and metric.

This is the single table ``run.py`` prints from, ``compare.py`` judges by
and ``test_perf_smoke.py`` checks ``BENCHMARK.json`` against.  Later
issues cite these names verbatim, so a name never changes meaning.

``clock`` says what a number was measured against: ``host`` is this
machine's wall clock, ``sim`` is simulated time or a simulated statistic
(pure in config and seed), ``sim/host`` is simulated work per host second,
``work`` is a count of operations the program performed.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

__all__ = [
    "CELLS",
    "END_TO_END",
    "PER_LAYER",
    "WORKLOADS",
    "Metric",
    "cell_name",
]

#: name -> why the workload exists (one line; BENCHMARK.json carries it).
WORKLOADS: Dict[str, str] = {
    "codec_ladder": (
        "codec does all the work: 2 contents x 3 presets x IPPP/all-intra, "
        "so a kernel change shows in its cells and stays flat in the others"
    ),
    "suite_score": (
        "the paper's user path: score three backends on a k=4 suite, cold "
        "(encodes + cache stores) then warm (keyed loads, zero encodes)"
    ),
    "traffic_steady": (
        "simulator hot path on ideal workers: per-request farm/cache-key/"
        "quality overhead dominates, codec speed and the fleet layer barely matter"
    ),
    "traffic_chaos": (
        "same simulator through FleetState, leases, hedges, redelivery and "
        "the deadline scheduler: guards the path traffic_steady bypasses"
    ),
}

CONTENTS: Tuple[str, ...] = ("screencast", "sports")
PRESETS: Tuple[str, ...] = ("ultrafast", "medium", "placebo")
GOPS: Tuple[str, ...] = ("ippp", "intra")

#: The 12 codec_ladder cells, in execution order.
CELLS: List[Tuple[str, str, str]] = [
    (content, preset, gop)
    for content in CONTENTS
    for preset in PRESETS
    for gop in GOPS
]


def cell_name(content: str, preset: str, gop: str) -> str:
    return f"{content}.{preset}.{gop}"


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    clock: str  # "host" | "sim" | "sim/host" | "work"
    home: Tuple[str, ...]  # workloads that measure it at full size
    bound: float = 0.0  # end-to-end only
    exact: bool = False  # must repeat exactly for a fixed seed


_ALL = tuple(WORKLOADS)
_LADDER = ("codec_ladder",)
_SUITE = ("suite_score",)
_TRAFFIC = ("traffic_steady", "traffic_chaos")

END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", "host", _ALL, 0.25),
    Metric("peak_rss_mb", "MiB", "lower", "host", _ALL, 0.10),
    Metric("encode_mpixel_s", "Mpixel/s", "higher", "host", _LADDER, 0.20),
    Metric("decode_mpixel_s", "Mpixel/s", "higher", "host", _LADDER, 0.20),
    Metric("transcode_pass_s", "s", "lower", "host", _LADDER, 0.20),
    Metric("score_cold_s", "s", "lower", "host", _SUITE, 0.20),
    Metric("score_warm_s", "s", "lower", "host", _SUITE, 0.20),
    Metric("sim_arrivals_per_s", "arrivals/s", "higher", "sim/host", _TRAFFIC, 0.25),
]


def _per_layer() -> List[Metric]:
    rows: List[Metric] = [Metric("video.synth_ms", "ms", "lower", "host", _LADDER)]
    for op in ("encode", "decode"):
        for cell in CELLS:
            rows.append(
                Metric(f"codec.{op}_ms.{cell_name(*cell)}", "ms", "lower", "host", _LADDER)
            )
    for name in ("bitstream_bytes", "sad_evals", "dct_blocks", "entropy_syms",
                 "deblock_edges"):
        unit = "bytes" if name == "bitstream_bytes" else "count"
        rows.append(Metric(f"codec.{name}", unit, "lower", "work", _LADDER, exact=True))
    rows += [
        Metric("metrics.psnr_ms", "ms", "lower", "host", _LADDER),
        Metric("metrics.ssim_ms", "ms", "lower", "host", _LADDER),
        Metric("core.suite_build_s", "s", "lower", "host", _SUITE),
    ]
    for stage in ("reference", "candidate"):
        for scenario in ("upload", "live", "vod"):
            rows.append(Metric(f"core.{stage}_ms.{scenario}", "ms", "lower", "host", _SUITE))
    rows += [
        Metric("core.score_us", "us", "lower", "host", _SUITE),
        Metric("encoders.transcodes", "count", "lower", "work", _SUITE, exact=True),
        Metric("exec.key_us", "us", "lower", "host", _SUITE),
        Metric("exec.store_ms", "ms", "lower", "host", _SUITE),
        Metric("exec.load_ms", "ms", "lower", "host", _SUITE),
        # Byte totals wobble by a few bytes between identical cold passes
        # (see README), so they are reported but not marked exact.
        Metric("exec.bytes_written", "bytes", "lower", "work", _SUITE),
        Metric("exec.bytes_read", "bytes", "lower", "work", _SUITE),
        Metric("exec.hit_ratio_warm", "ratio", "higher", "work", _SUITE, exact=True),
        Metric("traffic.arrivals_gen_ms", "ms", "lower", "host", _TRAFFIC),
        Metric("traffic.catalog_build_ms", "ms", "lower", "host", _TRAFFIC),
        Metric("traffic.run_s", "s", "lower", "host", _TRAFFIC),
        Metric("traffic.report_ms", "ms", "lower", "host", _TRAFFIC),
        Metric("pipeline.execute_job_s", "s", "lower", "host", _TRAFFIC),
        Metric("pipeline.jobs", "count", "lower", "work", _TRAFFIC, exact=True),
        Metric("traffic.admission_s", "s", "lower", "host", _TRAFFIC),
        Metric("traffic.admission_calls", "count", "lower", "work", _TRAFFIC, exact=True),
        Metric("traffic.autoscaler_s", "s", "lower", "host", _TRAFFIC),
        Metric("traffic.autoscaler_evals", "count", "lower", "work", _TRAFFIC, exact=True),
        Metric("traffic.fleet_s", "s", "lower", "host", _TRAFFIC),
        Metric("traffic.fleet_calls", "count", "lower", "work", _TRAFFIC, exact=True),
        Metric("pipeline.scheduler_s", "s", "lower", "host", _TRAFFIC),
        Metric("pipeline.scheduler_calls", "count", "lower", "work", _TRAFFIC, exact=True),
        Metric("robust.event_queue_s", "s", "lower", "host", _TRAFFIC),
        Metric("robust.events", "count", "lower", "work", _TRAFFIC, exact=True),
        Metric("traffic.simulator_self_s", "s", "lower", "host", _TRAFFIC),
        Metric("traffic.host_us_per_event", "us", "lower", "host", _TRAFFIC),
        Metric("exec.cache_key_us", "us", "lower", "host", _TRAFFIC),
        Metric("encoders.quality_db_us", "us", "lower", "host", _TRAFFIC),
        Metric("pipeline.memo_hit_job_us", "us", "lower", "host", _TRAFFIC),
        Metric("pipeline.cold_job_ms", "ms", "lower", "host", _TRAFFIC),
        Metric("predict.features_ms", "ms", "lower", "host", _TRAFFIC),
        Metric("traffic.arrived", "count", "higher", "sim", _TRAFFIC, exact=True),
        Metric("traffic.completed", "count", "higher", "sim", _TRAFFIC, exact=True),
        Metric("traffic.shed", "count", "lower", "sim", _TRAFFIC, exact=True),
        Metric("traffic.timed_out", "count", "lower", "sim", _TRAFFIC, exact=True),
        Metric("traffic.dead_lettered", "count", "lower", "sim", _TRAFFIC, exact=True),
        Metric("traffic.redeliveries", "count", "lower", "sim", _TRAFFIC, exact=True),
        Metric("traffic.hedges", "count", "lower", "sim", _TRAFFIC, exact=True),
        Metric("pipeline.useful_job_ratio", "ratio", "higher", "sim", _TRAFFIC, exact=True),
        Metric("host.calib_ms", "ms", "lower", "host", _ALL),
        Metric("bench.trace_overhead_ratio", "ratio", "lower", "host", _ALL),
    ]
    return rows


PER_LAYER: List[Metric] = _per_layer()
