"""Command-line interface: the benchmark and the codec as shell tools.

Invoke as ``python -m repro <command>`` (or the ``vbench-repro`` console
script).  Commands:

* ``suite``   -- build the suite and print its Table 2.
* ``run``     -- score a backend under a scenario across the suite.
* ``refs``    -- pre-compute scenario references (warm a transcode cache).
* ``synth``   -- synthesize a clip of a content class to a Y4M file.
* ``encode``  -- encode a Y4M file to a codec bitstream.
* ``decode``  -- decode a bitstream back to Y4M.
* ``entropy`` -- measure a clip's entropy (CRF-18 bits/pixel/second).
* ``analyze`` -- microarchitecture + SIMD profile of encoding a clip.
* ``chaos``   -- seeded fault-injection run of the transcoding farm.
* ``traffic`` -- simulate a request stream against the farm; print SLOs.
* ``sched``   -- compare EWMA vs predictor scheduling (BENCH_sched.json).
* ``fuzz``    -- deterministic structured fuzzing of the decoder.
* ``lint``    -- the vlint static-analysis pass (VL003-VL006, VL008).

Every command prints human-readable rows to stdout and exits non-zero on
invalid input, so the tools compose in shell pipelines.  Diagnostics that
must not perturb the stdout report -- transcode-cache statistics in
particular -- go to stderr, so ``run --jobs 4 --cache DIR`` stays
byte-identical to a serial, cacheless run.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vbench-repro",
        description="vbench (ASPLOS 2018) reproduction: benchmark and codec tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    suite = sub.add_parser("suite", help="build the suite and print Table 2")
    _suite_args(suite)

    run = sub.add_parser("run", help="score a backend under a scenario")
    _suite_args(run)
    run.add_argument(
        "--scenario",
        required=True,
        choices=["upload", "live", "vod", "popular"],
    )
    run.add_argument(
        "--backend",
        required=True,
        help="backend spec, e.g. x264:medium, x265, vp9, nvenc, qsv",
    )
    run.add_argument("--bisect-iterations", type=int, default=6)
    _exec_args(run)

    refs = sub.add_parser(
        "refs", help="pre-compute scenario references (warms the cache)"
    )
    _suite_args(refs)
    refs.add_argument(
        "--scenario",
        action="append",
        default=[],
        choices=["upload", "live", "vod", "popular", "platform"],
        help="scenario to prime (repeatable; default: all)",
    )
    _exec_args(refs)

    synth = sub.add_parser("synth", help="synthesize a clip to Y4M")
    synth.add_argument("output", help="output .y4m path")
    synth.add_argument("--content", default="natural")
    synth.add_argument("--size", default="112x64", help="WxH, even dimensions")
    synth.add_argument("--frames", type=int, default=14)
    synth.add_argument("--fps", type=float, default=30.0)
    synth.add_argument("--seed", type=int, default=0)

    encode = sub.add_parser("encode", help="encode a Y4M file")
    encode.add_argument("input", help="input .y4m path")
    encode.add_argument("output", help="output bitstream path")
    encode.add_argument("--preset", default="medium")
    group = encode.add_mutually_exclusive_group()
    group.add_argument("--crf", type=int)
    group.add_argument("--bitrate", type=float, help="target bits/second")
    encode.add_argument("--two-pass", action="store_true")

    decode = sub.add_parser("decode", help="decode a bitstream to Y4M")
    decode.add_argument("input", help="input bitstream path")
    decode.add_argument("output", help="output .y4m path")

    entropy = sub.add_parser("entropy", help="measure clip entropy")
    entropy.add_argument("input", help="input .y4m path")

    analyze = sub.add_parser("analyze", help="uarch + SIMD profile of a clip")
    analyze.add_argument("input", help="input .y4m path")
    analyze.add_argument("--preset", default="medium")
    analyze.add_argument("--crf", type=int, default=23)

    chaos = sub.add_parser(
        "chaos", help="fault-injection experiment over the synthetic suite"
    )
    _suite_args(chaos)
    chaos.add_argument("--workers", type=int, default=4)
    chaos.add_argument(
        "--delivery-backend", default="x264:medium", help="rung 0 for uploads"
    )
    chaos.add_argument(
        "--popular-backend", default="x264:veryslow", help="rung 0 for promotions"
    )
    chaos.add_argument("--fault-seed", type=int, default=0)
    chaos.add_argument("--crash-rate", type=float, default=0.1)
    chaos.add_argument("--straggler-rate", type=float, default=0.05)
    chaos.add_argument("--straggler-factor", type=float, default=20.0)
    chaos.add_argument("--corrupt-rate", type=float, default=0.05)
    chaos.add_argument(
        "--corrupt-stream-rate",
        type=float,
        default=0.0,
        help="rate of bitstream-level corruption (decoder conceals damage)",
    )
    chaos.add_argument(
        "--dead",
        action="append",
        default=[],
        metavar="SPEC",
        help="backend spec to take permanently down (repeatable)",
    )
    chaos.add_argument(
        "--live-every",
        type=int,
        default=0,
        metavar="N",
        help="make every Nth upload a live stream (0 = none)",
    )
    chaos.add_argument("--views", type=int, default=5000)
    chaos.add_argument("--view-seed", type=int, default=0)
    chaos.add_argument(
        "--cache",
        metavar="DIR",
        help="persistent transcode cache directory",
    )

    traffic = sub.add_parser(
        "traffic",
        help="simulate a request stream against the farm and report SLOs",
    )
    _traffic_args(
        traffic, seed=0, duration=3600.0, rps=0.4, workers=8, catalog=12
    )
    traffic.add_argument(
        "--predictor",
        action="store_true",
        help="schedule with the transcode-time predictor instead of EWMA",
    )
    traffic.add_argument(
        "--chaos",
        metavar="PROFILE",
        help=(
            "inject fleet faults from a named profile (crashes, spot, "
            "outage, full) and compare no-chaos vs naive vs recovery arms"
        ),
    )

    sched = sub.add_parser(
        "sched",
        help="run both scheduling arms (EWMA, predictor) and compare them",
    )
    _traffic_args(sched, seed=7, duration=300.0, rps=0.8, workers=5, catalog=48)
    sched.add_argument(
        "--spike-spacing",
        type=float,
        default=100.0,
        help="seconds between arrival spikes",
    )
    sched.add_argument(
        "--spike-duration", type=float, default=60.0, help="spike length, seconds"
    )
    sched.add_argument(
        "--retrain",
        action="store_true",
        help="regenerate the committed predictor coefficients first",
    )

    fuzz = sub.add_parser(
        "fuzz", help="fuzz the decoder with seeded structured mutations"
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--budget", type=int, default=1000, help="number of mutated decodes"
    )
    fuzz.add_argument(
        "--corpus",
        metavar="DIR",
        help="directory for violation reproducers (written and replayed)",
    )
    fuzz.add_argument(
        "--minimize",
        action="store_true",
        help="ddmin-shrink each violation before saving it",
    )
    fuzz.add_argument(
        "--max-pixels",
        type=int,
        default=None,
        help="luma-pixel budget a header may demand (default: ~4M)",
    )
    fuzz.add_argument(
        "--replay",
        metavar="DIR",
        help="skip the campaign; re-run the oracle over a saved corpus",
    )

    lint = sub.add_parser(
        "lint", help="run the vlint static-analysis pass over the source"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the installed repro "
        "package source)",
    )
    lint.add_argument(
        "--json", action="store_true", help="emit a machine-stable JSON report"
    )
    lint.add_argument(
        "--rules",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="files linted concurrently (process pool)",
    )
    lint.add_argument(
        "--reference",
        action="append",
        default=[],
        metavar="PATH",
        help="summaries-only tree (tests, examples): counts as usage for "
        "the project rules but is never linted itself (repeatable; "
        "default: ./tests when present)",
    )
    lint.add_argument(
        "--graph-out",
        metavar="FILE",
        help="write the resolved call graph as JSON",
    )
    return parser


def _suite_args(parser: argparse.ArgumentParser) -> None:
    from repro.constants import SUITE_SELECTION_SEED

    parser.add_argument("--profile", default="tiny")
    parser.add_argument("--k", type=int, default=15)
    parser.add_argument("--seed", type=int, default=SUITE_SELECTION_SEED)


def _exec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="videos processed concurrently (process pool)",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        help="persistent transcode cache directory",
    )


def _traffic_args(parser, *, seed, duration, rps, workers, catalog) -> None:
    """The flags ``traffic`` and ``sched`` share; only their defaults differ."""
    parser.add_argument("--seed", type=int, default=seed)
    parser.add_argument(
        "--duration", type=float, default=duration, help="arrival window, seconds"
    )
    parser.add_argument(
        "--rps", type=float, default=rps, help="aggregate steady-state arrivals/s"
    )
    parser.add_argument(
        "--workers", type=int, default=workers, help="autoscaler fleet ceiling"
    )
    parser.add_argument(
        "--min-workers", type=int, default=0, help="fleet floor (0 = scale-to-zero)"
    )
    parser.add_argument(
        "--catalog", type=int, default=catalog, help="synthesized catalog titles"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-stable JSON record instead of text",
    )
    parser.add_argument(
        "--bench-out",
        metavar="FILE",
        help="also write the compact benchmark record (BENCH_*.json)",
    )


def _traffic_config(args, use_predictor=False, **arrivals):
    """The ``TrafficConfig`` the ``_traffic_args`` flags describe.

    ``arrivals`` are further ``ArrivalConfig`` fields a command has flags for.
    """
    from repro.traffic import ArrivalConfig, AutoscalerConfig, TrafficConfig

    return TrafficConfig(
        arrivals=ArrivalConfig(duration_s=args.duration, rps=args.rps, **arrivals),
        autoscaler=AutoscalerConfig(
            min_workers=args.min_workers, max_workers=args.workers
        ),
        catalog_size=args.catalog,
        use_predictor=use_predictor,
    )


def _parse_size(size: str):
    """``WxH`` -> ``(width, height)``."""
    try:
        width, height = (int(v) for v in size.lower().split("x"))
    except ValueError:
        raise ValueError(f"--size must be WxH, got {size!r}") from None
    return width, height


def _emit(command):
    """Make ``command(args) -> (text, shown_record, bench_record)`` a handler.

    This is the one owner of ``--json`` and ``--bench-out``: it prints the
    shown record or the text, and writes the bench record.  A target
    directory that does not exist is refused before the command starts,
    not after minutes of simulation.
    """

    def handler(args) -> int:
        from pathlib import Path

        from repro.record import stable_json, write_record

        if args.bench_out and not Path(args.bench_out).resolve().parent.is_dir():
            raise FileNotFoundError(
                f"--bench-out: no directory {Path(args.bench_out).parent}"
            )
        text, shown_record, bench_record = command(args)
        print(stable_json(shown_record) if args.json else text)
        if args.bench_out:
            write_record(args.bench_out, bench_record)
            print(f"wrote {args.bench_out}", file=sys.stderr)
        return 0

    return handler


def _open_cache(args):
    """Build the TranscodeCache named by ``--cache``, if any."""
    if not getattr(args, "cache", None):
        return None
    from repro.exec.cache import TranscodeCache

    return TranscodeCache(args.cache)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _cmd_suite(args) -> int:
    from repro.core.benchmark import vbench_suite

    suite = vbench_suite(profile=args.profile, k=args.k, seed=args.seed)
    print(f"{'resolution':<12} {'name':<14} {'fps':>4} {'entropy':>9}")
    for resolution, name, fps, entropy in suite.table2():
        print(f"{resolution:<12} {name:<14} {fps:>4} {entropy:>9.1f}")
    return 0


def _cmd_run(args) -> int:
    from repro.core.benchmark import run_scenario, vbench_suite
    from repro.core.reporting import format_scores
    from repro.core.scenarios import Scenario

    cache = _open_cache(args)
    suite = vbench_suite(profile=args.profile, k=args.k, seed=args.seed)
    report = run_scenario(
        suite,
        Scenario(args.scenario),
        args.backend,
        bisect_iterations=args.bisect_iterations,
        jobs=args.jobs,
        cache=cache,
    )
    print(
        format_scores(
            report.scores,
            title=f"scenario={args.scenario} backend={report.backend}",
        )
    )
    if cache is not None:
        print(report.cache_summary(), file=sys.stderr)
    return 0


def _cmd_refs(args) -> int:
    from repro.core.benchmark import prime_references, vbench_suite
    from repro.core.scenarios import Scenario

    cache = _open_cache(args)
    scenarios = (
        [Scenario(s) for s in args.scenario]
        if args.scenario
        else list(Scenario)
    )
    suite = vbench_suite(profile=args.profile, k=args.k, seed=args.seed)
    stats = prime_references(suite, scenarios, jobs=args.jobs, cache=cache)
    names = ",".join(s.value for s in scenarios)
    print(
        f"primed {len(scenarios) * len(suite)} references "
        f"({len(suite)} videos x {names})"
    )
    if cache is not None:
        print(stats.to_line(), file=sys.stderr)
    return 0


def _cmd_synth(args) -> int:
    from repro.video.io import save_video
    from repro.video.synthesis import synthesize

    width, height = _parse_size(args.size)
    video = synthesize(
        args.content, width, height, args.frames, args.fps, seed=args.seed
    )
    written = save_video(video, args.output)
    print(f"wrote {args.output}: {video!r}, {written} bytes")
    return 0


def _cmd_encode(args) -> int:
    from pathlib import Path

    from repro.codec.encoder import encode
    from repro.metrics.psnr import psnr
    from repro.video.io import load_video

    video = load_video(args.input)
    kwargs = {}
    if args.crf is None and args.bitrate is None:
        kwargs["crf"] = 23
    elif args.crf is not None:
        kwargs["crf"] = args.crf
    else:
        kwargs["bitrate_bps"] = args.bitrate
        kwargs["two_pass"] = args.two_pass
    if args.two_pass and args.bitrate is None:
        print("error: --two-pass needs --bitrate", file=sys.stderr)
        return 2
    result = encode(video, config=args.preset, **kwargs)
    Path(args.output).write_bytes(result.bitstream)
    rate = result.total_bits / video.duration
    print(
        f"wrote {args.output}: {len(result.bitstream)} bytes "
        f"({rate:.0f} b/s), {result.keyframes} keyframes, "
        f"PSNR {psnr(video, result.recon):.2f} dB"
    )
    return 0


def _cmd_decode(args) -> int:
    from pathlib import Path

    from repro.codec.decoder import decode
    from repro.video.io import save_video

    video = decode(Path(args.input).read_bytes(), name=Path(args.input).stem)
    save_video(video, args.output)
    print(f"wrote {args.output}: {video!r}")
    return 0


def _cmd_entropy(args) -> int:
    from repro.video.entropy import measure_entropy
    from repro.video.io import load_video

    video = load_video(args.input)
    print(f"{measure_entropy(video):.3f} bit/pixel/second")
    return 0


def _cmd_analyze(args) -> int:
    from repro.simd.analysis import (
        modeled_seconds,
        scalar_fraction,
        vector_fraction_by_isa,
    )
    from repro.simd.isa import IsaLevel
    from repro.uarch.cpu import profile_encode
    from repro.uarch.topdown import top_down
    from repro.video.io import load_video

    video = load_video(args.input)
    profile = profile_encode(video, config=args.preset, crf=args.crf)
    counters = profile.counters
    breakdown = top_down(counters, profile)
    fractions = vector_fraction_by_isa(counters)
    seconds = modeled_seconds(counters)
    print(f"modeled time     {seconds * 1e3:10.3f} ms "
          f"({video.pixels / seconds / 1e6:.2f} Mpx/s)")
    print(f"icache MPKI      {profile.icache_mpki:10.2f}")
    print(f"branch MPKI      {profile.branch_mpki:10.2f}")
    print(f"LLC MPKI         {profile.llc_mpki:10.3f}")
    for bucket, value in breakdown.as_dict().items():
        print(f"topdown {bucket:<8} {value:10.3f}")
    print(f"scalar fraction  {scalar_fraction(counters):10.3f}")
    print(f"avx2 fraction    {fractions[IsaLevel.AVX2]:10.3f}")
    return 0


def _cmd_chaos(args) -> int:
    from repro.core.benchmark import vbench_suite
    from repro.encoders.registry import get_transcoder
    from repro.pipeline.farm import FarmConfig, TranscodeFarm
    from repro.robust.faults import FaultPlan

    for spec in args.dead:
        get_transcoder(spec)  # a typo'd --dead would silently inject nothing
    plan = FaultPlan(
        seed=args.fault_seed,
        crash_rate=args.crash_rate,
        straggler_rate=args.straggler_rate,
        corrupt_rate=args.corrupt_rate,
        corrupt_stream_rate=args.corrupt_stream_rate,
        straggler_factor=args.straggler_factor,
        dead_backends=frozenset(args.dead),
    )
    farm = TranscodeFarm(
        delivery_backend=args.delivery_backend,
        popular_backend=args.popular_backend,
        config=FarmConfig(workers=args.workers),
        fault_plan=plan,
        cache=_open_cache(args),
    )
    suite = vbench_suite(profile=args.profile, k=args.k, seed=args.seed)
    for index, entry in enumerate(suite.videos):
        live = args.live_every > 0 and index % args.live_every == 0
        farm.upload(entry.video, live=live)
    if args.views > 0:
        farm.simulate_views(args.views, seed=args.view_seed)
    report = farm.finalize()
    print(report.to_text())
    print("costs:")
    for category, dollars in sorted(farm.costs.breakdown().items()):
        print(f"  {category:<8} ${dollars:.6f}")
    print(f"  compute-hours {farm.costs.compute_hours:.9f}")
    if farm.costs.cache is not None:
        print(farm.costs.cache.to_line(), file=sys.stderr)
        print(
            f"compute-hours saved by cache: "
            f"{farm.costs.compute_hours_saved:.9f}",
            file=sys.stderr,
        )
    return 0


@_emit
def _cmd_traffic(args):
    from repro.traffic import run_traffic

    config = _traffic_config(args, use_predictor=args.predictor)
    if args.chaos:
        return _run_chaos_compare(args, config)
    report = run_traffic(config=config, seed=args.seed)
    return report.to_text(), report.as_dict(), report.bench_dict()


def _compare_text(title: str, record, arm_lines, deltas: str) -> str:
    """A compare record as text: header, ``arm_lines(arm)`` per arm, deltas."""
    params = record["parameters"]
    lines = [
        title,
        f"  seed={params['seed']} duration={params['duration_s']}s "
        f"catalog={params['catalog_size']}",
    ]
    for name, arm in record["arms"].items():
        lines.append(f"  {name}:")
        lines.extend(arm_lines(arm))
    return "\n".join(lines + [f"  deltas: {deltas}"])


def _run_chaos_compare(args, config):
    """Three-arm chaos comparison: no-chaos, naive recovery, full recovery."""
    import dataclasses

    from repro.traffic import (
        NAIVE_POLICY,
        RECOVERY_POLICY,
        chaos_bench_dict,
        resolve_profile,
        run_traffic,
    )

    plan = resolve_profile(args.chaos, args.seed)
    chaos = {"fleet": plan, "chaos_profile": args.chaos}
    baseline, naive, recovery = (
        run_traffic(config=dataclasses.replace(config, **arm), seed=args.seed)
        for arm in (
            {},
            {**chaos, "recovery": NAIVE_POLICY},
            {**chaos, "recovery": RECOVERY_POLICY},
        )
    )
    record = chaos_bench_dict(args.chaos, baseline, naive, recovery)

    def arm_lines(arm) -> List[str]:
        return [
            f"    deadline hit rate:  {arm['deadline_hit_rate']:.6f} "
            f"({arm['completed']}/{arm['arrived']} completed, "
            f"{arm['dead_lettered']} dead-lettered)",
            f"    availability:       {arm['availability']:.6f} "
            f"(workers lost {arm['workers_lost']}, "
            f"ttr p99 {arm['ttr_p99_s']:.3f}s)",
            f"    recovery activity:  interruptions={arm['interruptions']} "
            f"redeliveries={arm['redeliveries']} "
            f"hedge_wins={arm['hedge_wins']}",
            f"    cost:               total=${arm['total_cost_usd']:.9f} "
            f"wasted=${arm['wasted_cost_usd']:.9f}",
        ]

    deltas = record["deltas"]
    text = _compare_text(
        f"chaos comparison (profile={args.chaos})",
        record,
        arm_lines,
        f"hit_rate_recovery_vs_naive={deltas['hit_rate_recovery_vs_naive']:+.9f} "
        f"availability={deltas['availability_recovery_vs_naive']:+.9f} "
        f"cost=${deltas['cost_recovery_vs_naive_usd']:+.9f}",
    )
    return text, record, record


@_emit
def _cmd_sched(args):
    from repro.record import write_record
    from repro.traffic import run_traffic, sched_bench_dict

    if args.retrain:
        from repro.predict import train_predictor
        from repro.predict.model import coefficients_path

        predictor = train_predictor()
        path = coefficients_path()
        write_record(path, predictor.as_dict())
        print(
            f"wrote {path} (digest {predictor.digest()[:16]})", file=sys.stderr
        )

    ewma, pred = (
        run_traffic(
            config=_traffic_config(
                args,
                use_predictor=flag,
                spike_spacing_s=args.spike_spacing,
                spike_duration_s=args.spike_duration,
            ),
            seed=args.seed,
        )
        for flag in (False, True)
    )
    record = sched_bench_dict(ewma, pred)

    def arm_lines(arm) -> List[str]:
        return [
            f"    live deadline hits: {arm['live_deadline_hits']}"
            f"/{arm['live_arrived']} "
            f"(rate {arm['live_deadline_hit_rate']:.6f})",
            f"    live p99 e2e:       {arm['live_p99_e2e_s']:.6f}s "
            f"mape={arm['live_prediction_mape']:.6f}",
            f"    slo violations:     {arm['slo_violations']} "
            f"shed_fraction={arm['shed_fraction']:.6f}",
            f"    cost:               "
            f"compute={arm['compute_hours']:.9f}h "
            f"total=${arm['total_cost_usd']:.9f}",
        ]

    deltas = record["deltas"]
    text = _compare_text(
        "sched comparison (ewma vs predictor)",
        record,
        arm_lines,
        f"hit_rate={deltas['live_hit_rate_improvement']:+.9f} "
        f"cost=${deltas['cost_delta_usd']:+.9f}",
    )
    return text, record, record


def _cmd_fuzz(args) -> int:
    from repro.fuzz import DEFAULT_MAX_PIXELS, replay_corpus, run_fuzz

    max_pixels = (
        args.max_pixels if args.max_pixels is not None else DEFAULT_MAX_PIXELS
    )
    if args.replay:
        report = replay_corpus(args.replay, max_pixels=max_pixels)
    else:
        report = run_fuzz(
            seed=args.seed,
            budget=args.budget,
            max_pixels=max_pixels,
            corpus_dir=args.corpus,
            minimize=args.minimize,
        )
    print(report.to_text(), end="")
    return 0 if report.ok else 1


def _cmd_lint(args) -> int:
    from pathlib import Path

    import repro
    from repro.analysis.engine import lint_paths
    from repro.analysis.reporters import render_json, render_text
    from repro.record import write_record

    paths = args.paths or [str(Path(repro.__file__).parent)]
    rules = (
        [r.strip() for r in args.rules.split(",") if r.strip()]
        if args.rules
        else None
    )
    reference = args.reference or (
        ["tests"] if Path("tests").is_dir() else []
    )
    report = lint_paths(
        paths,
        rules=rules,
        jobs=args.jobs,
        reference_paths=reference,
    )
    if args.graph_out:
        write_record(args.graph_out, report.call_graph)
    if args.json:
        print(render_json(report))
    else:
        print(render_text(report))
    return 0 if report.ok else 1


_COMMANDS = {
    "suite": _cmd_suite,
    "run": _cmd_run,
    "refs": _cmd_refs,
    "synth": _cmd_synth,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "entropy": _cmd_entropy,
    "analyze": _cmd_analyze,
    "chaos": _cmd_chaos,
    "traffic": _cmd_traffic,
    "sched": _cmd_sched,
    "fuzz": _cmd_fuzz,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
