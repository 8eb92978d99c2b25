"""The four workloads, as one fresh child interpreter runs them.

Every layer is measured from outside, by timing calls into its public
functions.  The timed passes call only the frozen entry-point list (see
README); the per-layer probes reach further but resolve those symbols
through :func:`lookup`, so a renamed symbol nulls one probe and nothing
else.  ``repro`` is imported inside the set-up functions: a CLI user pays
the imports, so they belong to ``setup_s``.
"""

from __future__ import annotations

import hashlib
import math
import sys
import tempfile
from functools import partial
from importlib import import_module
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

from catalog import CELLS, CONTENTS, cell_name
from spans import Tracer

__all__ = ["SIZES", "WORKLOAD_FUNCS", "Outcome", "lookup", "work_dir"]

#: Input sizes.  ``full`` is what the metrics are defined on; ``smoke`` is
#: the shrunk copy used by ``--smoke`` and for the off-path columns.
SIZES: Dict[str, Dict[str, object]] = {
    "full": {"clip": (192, 128, 12), "k": 4, "steady_s": 24000.0, "chaos_s": 12000.0},
    "smoke": {"clip": (64, 48, 4), "k": 2, "steady_s": 300.0, "chaos_s": 300.0},
}

CRF = 28
CLIP_FPS = 24.0
MIN_PSNR_DB = 20.0
WARM_PASSES = 5
#: The suite is pinned: which videos selection picks moves score_cold_s by
#: up to 50% between seeds (3.4 s .. 5.3 s at k=4), which would bury any
#: regression under input variation.  vbench itself is one fixed suite.
SUITE_SEED = 7
SUITE_PROFILE = "tiny"
#: "score a backend" three times: (scenario, backend).
SCORE_CALLS: Tuple[Tuple[str, str], ...] = (
    ("UPLOAD", "x264:medium"),
    ("LIVE", "x264:veryfast"),
    ("VOD", "nvenc"),
)


def work_dir() -> Path:
    """Scratch space inside the benchmark's own directory (git-ignored):
    the benchmark reads and writes nothing outside its checkout."""
    path = Path(__file__).resolve().parent / ".work"
    path.mkdir(exist_ok=True)
    return path


def lookup(path: str) -> Optional[object]:
    """Resolve ``package.module:attr.attr``; ``None`` (with a warning) when
    the symbol has been renamed or removed, so the probe reports null."""
    module_name, _, attrs = path.partition(":")
    try:
        target: object = import_module(module_name)
        for attr in attrs.split(".") if attrs else ():
            target = getattr(target, attr)
    except (ImportError, AttributeError) as error:
        print(f"warning: probe symbol {path} unavailable ({error})", file=sys.stderr)
        return None
    return target


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


class Outcome:
    """What one pass of one workload measured and verified."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.pass_wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.exact: Dict[str, float] = {}
        self.digests: Dict[str, str] = {}
        self.layer: Dict[str, Optional[float]] = {}

    def fail(self, op: str, reason: object, count: int = 1) -> None:
        self.failed += count
        self.failures.append(f"{op}: {reason}")

    def as_dict(self) -> Dict[str, object]:
        return dict(vars(self))


# ---------------------------------------------------------------------------
# codec_ladder
# ---------------------------------------------------------------------------


def ladder_setup(seed: int, size: Dict[str, object], tr: Tracer):
    from repro.video.synthesis import synthesize

    import repro.codec  # noqa: F401  (the pass calls it; users pay the import)
    import repro.metrics  # noqa: F401

    width, height, frames = size["clip"]
    clips = {}
    synth_s = 0.0
    for content in CONTENTS:
        with tr.span("video.synth", "video", content) as span:
            clips[content] = synthesize(content, width, height, frames, CLIP_FPS, seed)
        synth_s += span.seconds
    return {"clips": clips, "synth_s": synth_s, "seed": seed}


def ladder_measure(inputs, tr: Tracer, inject: str) -> Outcome:
    from repro.codec import decode, encode, preset
    from repro.metrics import psnr, ssim_video
    from repro.video.synthesis import synthesize

    out = Outcome()
    clips = inputs["clips"]
    # Untimed: the first encode in a process pays lazy numpy set-up.
    encode(synthesize("screencast", 64, 48, 2, CLIP_FPS, inputs["seed"]),
           preset("ultrafast"), crf=CRF)

    encode_s = decode_s = psnr_s = ssim_s = 0.0
    pixels = 0
    counts = {"bitstream_bytes": 0.0, "sad": 0.0, "dct": 0.0, "entropy_sym": 0.0,
              "deblock_edge": 0.0, "sad_intra": 0.0}
    with tr.span("bench.ladder_pass", "bench") as whole:
        for index, (content, preset_name, gop) in enumerate(CELLS):
            cell = cell_name(content, preset_name, gop)
            video = clips[content]
            config = preset(preset_name)
            if gop == "intra":
                config = config.derived(keyint=1)
            out.attempted += 1
            try:
                with tr.span("bench.cell", "bench", cell):
                    with tr.span("codec.encode", "codec", cell) as enc:
                        result = encode(video, config, crf=CRF)
                    bitstream = result.bitstream
                    if inject == "flip_bitstream" and index == 0:
                        flipped = bytearray(bitstream)
                        flipped[len(flipped) // 2] ^= 0x55
                        bitstream = bytes(flipped)
                    with tr.span("codec.decode", "codec", cell) as dec:
                        decoded = decode(bitstream)
                    with tr.span("metrics.psnr", "metrics", cell) as ps:
                        quality = psnr(video, decoded)
                    with tr.span("metrics.ssim", "metrics", cell) as ss:
                        ssim_video(video, decoded)
                if decoded != result.recon:
                    raise CheckFailed("decode(bitstream) != recon")
                if not (math.isfinite(quality) and quality >= MIN_PSNR_DB):
                    raise CheckFailed(f"PSNR {quality!r} dB, need finite and >= {MIN_PSNR_DB}")
            except Exception as error:  # one cell is one operation: record, go on
                out.fail(cell, repr(error))
                continue
            # Only a cell that passed its checks contributes timing.
            encode_s += enc.seconds
            decode_s += dec.seconds
            psnr_s += ps.seconds
            ssim_s += ss.seconds
            pixels += video.pixels
            out.layer[f"codec.encode_ms.{cell}"] = enc.seconds * 1e3
            out.layer[f"codec.decode_ms.{cell}"] = dec.seconds * 1e3
            out.digests[f"bitstream.{cell}"] = hashlib.sha256(result.bitstream).hexdigest()
            counts["bitstream_bytes"] += len(result.bitstream)
            for kernel in ("sad", "dct", "entropy_sym", "deblock_edge"):
                counts[kernel] += result.counters.get(kernel)
            if gop == "intra":
                counts["sad_intra"] += result.counters.get("sad")

    out.pass_wall_s = whole.seconds
    if encode_s > 0 and decode_s > 0:
        out.metrics["encode_mpixel_s"] = pixels / encode_s / 1e6
        out.metrics["decode_mpixel_s"] = pixels / decode_s / 1e6
        out.metrics["transcode_pass_s"] = inputs["synth_s"] + whole.seconds
    out.layer["video.synth_ms"] = inputs["synth_s"] * 1e3
    out.layer["metrics.psnr_ms"] = psnr_s * 1e3
    out.layer["metrics.ssim_ms"] = ssim_s * 1e3
    out.exact = {
        "codec.bitstream_bytes": counts["bitstream_bytes"],
        "codec.sad_evals": counts["sad"],
        "codec.dct_blocks": counts["dct"],
        "codec.entropy_syms": counts["entropy_sym"],
        "codec.deblock_edges": counts["deblock_edge"],
        # All-intra cells must bypass motion search altogether.
        "codec.sad_evals.intra_cells": counts["sad_intra"],
    }
    return out


# ---------------------------------------------------------------------------
# suite_score
# ---------------------------------------------------------------------------


def suite_setup(seed: int, size: Dict[str, object], tr: Tracer):
    from repro.core.benchmark import vbench_suite

    import repro.exec  # noqa: F401

    with tr.span("core.suite_build", "core") as span:
        vbench_suite(profile=SUITE_PROFILE, k=size["k"], seed=SUITE_SEED)
    return {"k": size["k"], "build_s": span.seconds}


def _traced_scenario(suite, scenario, backend: str, cache, tr: Tracer, api, times):
    """``run_scenario``'s serial loop, re-done with a span per stage."""
    suite.references.attach_cache(cache)
    transcoder = cache.wrap(api["get_transcoder"](backend))
    before = cache.stats.copy()
    scores, candidates, references = [], [], []
    for entry in suite:
        rid = f"{entry.name}:{scenario.value}"
        with tr.span("core.reference", "core", rid) as ref_span:
            reference = suite.references.reference(entry.video, scenario)
        with tr.span("core.candidate", "core", rid) as cand_span:
            candidate = api["candidate_for_scenario"](
                transcoder, entry.video, scenario, suite.references)
        with tr.span("core.score", "core", rid) as score_span:
            scores.append(api["score_scenario"](scenario, candidate, reference.result))
        candidates.append(candidate)
        references.append(reference.result)
        times.setdefault(f"core.reference_ms.{scenario.value}", []).append(
            ref_span.seconds * 1e3)
        times.setdefault(f"core.candidate_ms.{scenario.value}", []).append(
            cand_span.seconds * 1e3)
        times.setdefault("core.score_us", []).append(score_span.seconds * 1e6)
    return api["ScenarioReport"](
        scenario=scenario, backend=transcoder.name, scores=scores,
        candidates=candidates, references=references,
        cache=cache.stats.since(before),
    )


def suite_measure(inputs, tr: Tracer, inject: str) -> Outcome:
    from repro.core.benchmark import run_scenario, vbench_suite
    from repro.core.scenarios import Scenario
    from repro.exec import TranscodeCache

    out = Outcome()
    k = inputs["k"]
    out.layer["core.suite_build_s"] = inputs["build_s"]
    api = None
    if tr.enabled:
        api = {
            "get_transcoder": lookup("repro.encoders:get_transcoder"),
            "candidate_for_scenario": lookup("repro.core.harness:candidate_for_scenario"),
            "score_scenario": lookup("repro.core.scenarios:score_scenario"),
            "ScenarioReport": lookup("repro.core.benchmark:ScenarioReport"),
        }
        if any(symbol is None for symbol in api.values()):
            api = None
    stage_times: Dict[str, List[float]] = {}

    def score_pass(root: str, label: str, staged: bool):
        """Three scorings on a fresh suite and a fresh cache object."""
        suite = vbench_suite(profile=SUITE_PROFILE, k=k, seed=SUITE_SEED)
        cache = TranscodeCache(root)
        reports = []
        with tr.span("bench.score_pass", "bench", label) as whole:
            for scenario_name, backend in SCORE_CALLS:
                scenario = getattr(Scenario, scenario_name)
                rid = f"{label}:{scenario_name.lower()}:{backend}"
                with tr.span("core.run_scenario", "core", rid):
                    if staged:
                        report = _traced_scenario(
                            suite, scenario, backend, cache, tr, api, stage_times)
                    else:
                        report = run_scenario(suite, scenario, backend, cache=cache)
                reports.append(report)
        return whole.seconds, reports, cache.stats

    def check_call(label: str, report, cold_table: Optional[str], warm: bool) -> None:
        """One run_scenario call scores k videos: k operations."""
        out.attempted += k
        op = f"{label}:{report.scenario.value}:{report.backend}"
        if any(reference is None for reference in report.references) or len(
                report.references) != k:
            out.fail(op, "a video has no reference", k)
        elif warm and report.cache.encodes != 0:
            out.fail(op, f"warm pass encoded {report.cache.encodes} time(s)", k)
        elif cold_table is not None and report.to_table() != cold_table:
            out.fail(op, "score table differs from the cold pass", k)

    with tempfile.TemporaryDirectory(dir=work_dir(), prefix="cache-") as root:
        cold_s, cold_reports, cold_stats = score_pass(root, "cold", api is not None)
        cold_tables = [report.to_table() for report in cold_reports]
        for report in cold_reports:
            check_call("cold", report, None, warm=False)
        warm_s: List[float] = []
        hits = lookups = bytes_read = 0
        for index in range(WARM_PASSES):
            if inject == "warm_miss" and index == 0:
                next(Path(root).glob("*/*.vbt")).unlink()
            seconds, reports, stats = score_pass(root, f"warm{index}", False)
            failed_before = out.failed
            for report, table in zip(reports, cold_tables):
                check_call(f"warm{index}", report, table, warm=True)
            if out.failed == failed_before:
                warm_s.append(seconds)
            hits += stats.hits
            lookups += stats.lookups
            bytes_read = stats.bytes_read
        if tr.enabled:
            _exec_probes(out, cold_reports, tr)

    out.pass_wall_s = cold_s
    out.metrics["score_cold_s"] = cold_s
    if warm_s:
        out.metrics["score_warm_s"] = median(warm_s)
    out.exact = {
        "encoders.transcodes": cold_stats.misses,
        "exec.hit_ratio_warm": hits / lookups if lookups else 0.0,
    }
    out.layer["exec.bytes_written"] = cold_stats.bytes_written
    out.layer["exec.bytes_read"] = bytes_read
    out.digests["score_tables"] = hashlib.sha256(
        "\n".join(cold_tables).encode("utf-8")).hexdigest()
    for name, samples in stage_times.items():
        out.layer[name] = median(samples)
    return out


def _exec_probes(out: Outcome, reports, tr: Tracer) -> None:
    """Direct calls to key_for / store / load on the suite's own results."""
    from repro.exec import TranscodeCache

    get_transcoder = lookup("repro.encoders:get_transcoder")
    rate_spec = lookup("repro.encoders.base:RateSpec")
    if get_transcoder is None or rate_spec is None:
        return
    transcoder = get_transcoder("x264:medium")
    rate = rate_spec.for_crf(18)
    key_us: List[float] = []
    store_ms: List[float] = []
    load_ms: List[float] = []
    with tempfile.TemporaryDirectory(dir=work_dir(), prefix="probe-") as root:
        cache = TranscodeCache(root)
        with tr.span("bench.exec_probes", "bench"):
            for report in reports:
                for result in report.candidates:
                    rid = f"{result.source.name}:{report.scenario.value}"
                    with tr.span("exec.key_for", "exec", rid) as span:
                        key = cache.key_for(result.source, transcoder, rate)
                    key_us.append(span.seconds * 1e6)
                    # One entry per (video, scenario), not one per video.
                    key = hashlib.sha256((key + rid).encode("utf-8")).hexdigest()
                    with tr.span("exec.store", "exec", rid) as span:
                        cache.store(key, result)
                    store_ms.append(span.seconds * 1e3)
                    with tr.span("exec.load", "exec", rid) as span:
                        loaded = cache.load(key, result.source)
                    if loaded is not None:
                        load_ms.append(span.seconds * 1e3)
    out.layer["exec.key_us"] = median(key_us)
    out.layer["exec.store_ms"] = median(store_ms)
    out.layer["exec.load_ms"] = median(load_ms) if load_ms else None


# ---------------------------------------------------------------------------
# traffic_steady / traffic_chaos
# ---------------------------------------------------------------------------


def traffic_setup(chaos: bool, seed: int, size: Dict[str, object], tr: Tracer):
    from repro.traffic import (
        RECOVERY_POLICY,
        ArrivalConfig,
        TrafficConfig,
        TrafficSimulator,
        resolve_profile,
    )

    if chaos:
        config = TrafficConfig(
            arrivals=ArrivalConfig(duration_s=size["chaos_s"]),
            fleet=resolve_profile("full", seed),
            recovery=RECOVERY_POLICY,
            chaos_profile="full",
            use_predictor=True,
        )
    else:
        config = TrafficConfig(arrivals=ArrivalConfig(duration_s=size["steady_s"]))
    with tr.span("traffic.catalog_build", "traffic") as span:
        sim = TrafficSimulator(config, seed)
    return {"sim": sim, "config": config, "seed": seed, "chaos": chaos,
            "catalog_build_s": span.seconds}


#: Aggregate name -> (attribute of the simulator, its public methods).
#: ``None`` = every public method of the collaborator.  The event queue has
#: two aggregates so that the calls of ``robust.events`` count events (pops);
#: their busy times are added up into ``robust.event_queue_s``.
_SIM_WRAPS: Tuple[Tuple[str, str, str, Optional[Tuple[str, ...]]], ...] = (
    ("pipeline.execute_job", "pipeline", "farm", ("execute_job",)),
    ("traffic.admission", "traffic", "admission", ("decide",)),
    ("traffic.autoscaler", "traffic", "scaler", ("evaluate",)),
    ("traffic.fleet", "traffic", "fleet", None),
    ("pipeline.scheduler", "pipeline", "scheduler", ("choose", "choose_remaining")),
    ("robust.event_queue", "robust", "events", ("schedule",)),
    ("robust.events", "robust", "events", ("pop",)),
)


def _install_wrappers(sim, tr: Tracer) -> None:
    for name, layer, attribute, methods in _SIM_WRAPS:
        target = getattr(sim, attribute, None)
        if target is None:  # e.g. no scheduler on the EWMA arm
            continue
        if methods is None:
            methods = tuple(
                method for method in dir(type(target))
                if not method.startswith("_")
                and callable(getattr(type(target), method))
            )
        for method in methods:
            if callable(getattr(target, method, None)):
                tr.wrap(target, method, name, layer)


def traffic_measure(inputs, tr: Tracer, inject: str) -> Outcome:
    out = Outcome()
    sim = inputs["sim"]
    rid = f"seed{inputs['seed']}"
    if tr.enabled:
        _install_wrappers(sim, tr)
    out.attempted = 1
    with tr.span("traffic.run", "traffic", rid) as run:
        report = sim.run()
    with tr.span("traffic.report", "traffic", rid) as rendering:
        report.to_json()
        digest = report.digest()
    if inject == "broken_partition":
        report.scenarios["upload"].completed += 1
    terminal = report.completed + report.shed + report.timed_out + report.dead_lettered
    if report.arrived != terminal or report.arrived < 1:
        out.fail(rid, f"arrived {report.arrived} != terminal states {terminal}")
    elif inputs["chaos"] and report.fleet.reclaimed_busy != 0:
        out.fail(rid, f"{report.fleet.reclaimed_busy} busy worker(s) reclaimed")
    elif inputs["chaos"] and not 0.0 <= report.fleet.availability <= 1.0:
        out.fail(rid, f"availability {report.fleet.availability} outside [0, 1]")
    else:
        out.metrics["sim_arrivals_per_s"] = report.arrived / run.seconds
    out.pass_wall_s = run.seconds
    out.digests["slo_report"] = digest
    fleet = report.fleet
    out.exact = {
        "traffic.arrived": report.arrived,
        "traffic.completed": report.completed,
        "traffic.shed": report.shed,
        "traffic.timed_out": report.timed_out,
        "traffic.dead_lettered": report.dead_lettered,
        "traffic.redeliveries": fleet.redeliveries if fleet is not None else 0,
        "traffic.hedges": fleet.hedges_launched if fleet is not None else 0,
    }
    out.layer["traffic.catalog_build_ms"] = inputs["catalog_build_s"] * 1e3
    out.layer["traffic.run_s"] = run.seconds
    out.layer["traffic.report_ms"] = rendering.seconds * 1e3
    if tr.enabled:
        _traffic_layers(out, report, run.seconds, tr)
        with tr.span("bench.traffic_probes", "bench"):
            _traffic_probes(out, inputs, tr)
    return out


def _traffic_layers(out: Outcome, report, run_s: float, tr: Tracer) -> None:
    busy_names = ("pipeline.execute_job", "traffic.admission", "traffic.autoscaler",
                  "traffic.fleet", "pipeline.scheduler")
    for name in busy_names:
        out.layer[f"{name}_s"] = tr.busy(name)
    out.layer["robust.event_queue_s"] = tr.busy("robust.event_queue") + tr.busy("robust.events")
    jobs = tr.calls("pipeline.execute_job")
    events = tr.calls("robust.events")
    out.exact.update({
        "pipeline.jobs": jobs,
        "traffic.admission_calls": tr.calls("traffic.admission"),
        "traffic.autoscaler_evals": tr.calls("traffic.autoscaler"),
        "traffic.fleet_calls": tr.calls("traffic.fleet"),
        "pipeline.scheduler_calls": tr.calls("pipeline.scheduler"),
        "robust.events": events,
        "pipeline.useful_job_ratio": report.completed / jobs if jobs else 0.0,
    })
    wrapped = sum(agg.busy_s for agg in tr.aggregates.values())
    out.layer["traffic.simulator_self_s"] = run_s - wrapped
    out.layer["traffic.host_us_per_event"] = run_s / events * 1e6 if events else None


def _timed(tr: Tracer, name: str, layer: str, rid: str, call: Callable[[], object]) -> float:
    with tr.span(name, layer, rid) as span:
        call()
    return span.seconds


def _traffic_probes(out: Outcome, inputs, tr: Tracer) -> None:
    """Direct probes on the workload's own catalog (see README for what
    each is predicted to account for)."""
    sim, config, seed = inputs["sim"], inputs["config"], inputs["seed"]
    catalog = getattr(sim, "catalog", None)

    generate_arrivals = lookup("repro.traffic:generate_arrivals")
    if generate_arrivals is not None:
        out.layer["traffic.arrivals_gen_ms"] = 1e3 * _timed(
            tr, "traffic.generate_arrivals", "traffic", f"seed{seed}",
            lambda: generate_arrivals(config.arrivals, config.catalog_size, seed))
    if not catalog:
        print("warning: simulator has no catalog; catalog probes skipped", file=sys.stderr)
        return

    get_transcoder = lookup("repro.encoders:get_transcoder")
    rate_spec = lookup("repro.encoders.base:RateSpec")
    cache_key = lookup("repro.exec:cache_key")
    if None not in (get_transcoder, rate_spec, cache_key):
        backend, rate = get_transcoder("x264:medium"), rate_spec.for_crf(18)
        out.layer["exec.cache_key_us"] = 1e6 * median(
            _timed(tr, "exec.cache_key", "exec", title.name,
                   lambda title=title: cache_key(title, backend, rate))
            for title in catalog)
    if None not in (get_transcoder, rate_spec):
        result = get_transcoder("x264:ultrafast").transcode(catalog[0], rate_spec.for_crf(30))
        if hasattr(type(result), "quality_db"):
            out.layer["encoders.quality_db_us"] = 1e6 * median(
                _timed(tr, "encoders.quality_db", "encoders", catalog[0].name,
                       lambda: result.quality_db)
                for _ in range(20))
        else:
            print("warning: TranscodeResult.quality_db unavailable", file=sys.stderr)

    farm_cls = lookup("repro.pipeline:TranscodeFarm")
    farm_config = lookup("repro.pipeline.farm:FarmConfig")
    scenario_cls = lookup("repro.core.scenarios:Scenario")
    if None not in (farm_cls, farm_config, scenario_cls):
        farm = farm_cls(config=farm_config(time_scale=config.time_scale), memoize=True)
        scenarios = (scenario_cls.UPLOAD, scenario_cls.LIVE, scenario_cls.VOD)
        cold: List[float] = []
        memo: List[float] = []
        for index, title in enumerate(catalog):
            scenario = scenarios[index % len(scenarios)]
            for label, samples in (("cold", cold), ("memo_hit", memo)):
                samples.append(_timed(
                    tr, f"pipeline.execute_job.{label}", "pipeline", title.name,
                    lambda: farm.execute_job(title, scenario, at_s=0.0)))
        out.layer["pipeline.cold_job_ms"] = 1e3 * median(cold)
        out.layer["pipeline.memo_hit_job_us"] = 1e6 * median(memo)

    extract_features = lookup("repro.predict.features:extract_features")
    if extract_features is not None:
        out.layer["predict.features_ms"] = 1e3 * median(
            _timed(tr, "predict.extract_features", "predict", title.name,
                   lambda title=title: extract_features(title))
            for title in catalog[:6])


#: workload -> (set-up, measure)
WORKLOAD_FUNCS: Dict[str, Tuple[Callable, Callable]] = {
    "codec_ladder": (ladder_setup, ladder_measure),
    "suite_score": (suite_setup, suite_measure),
    "traffic_steady": (partial(traffic_setup, False), traffic_measure),
    "traffic_chaos": (partial(traffic_setup, True), traffic_measure),
}
