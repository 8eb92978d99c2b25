"""CLI: every subcommand end to end through temp files."""

from pathlib import Path

import pytest

from repro.cli import main


@pytest.fixture()
def clip_path(tmp_path):
    path = tmp_path / "clip.y4m"
    assert main(["synth", str(path), "--content", "natural", "--size", "48x32",
                 "--frames", "6", "--fps", "12", "--seed", "3"]) == 0
    return path


class TestSynth:
    def test_creates_file(self, clip_path):
        assert clip_path.exists()
        assert clip_path.stat().st_size > 0

    def test_reports_write(self, tmp_path, capsys):
        path = tmp_path / "r.y4m"
        assert main(["synth", str(path), "--size", "32x32", "--frames", "2"]) == 0
        assert "wrote" in capsys.readouterr().out

    def test_bad_size(self, tmp_path, capsys):
        code = main(["synth", str(tmp_path / "x.y4m"), "--size", "nope"])
        assert code == 2
        assert "WxH" in capsys.readouterr().err

    def test_unknown_content(self, tmp_path):
        assert main(
            ["synth", str(tmp_path / "x.y4m"), "--content", "fractal"]
        ) == 2


class TestEncodeDecode:
    def test_roundtrip(self, clip_path, tmp_path, capsys):
        stream = tmp_path / "clip.rpv"
        out = tmp_path / "out.y4m"
        assert main(["encode", str(clip_path), str(stream), "--crf", "28"]) == 0
        assert "PSNR" in capsys.readouterr().out
        assert main(["decode", str(stream), str(out)]) == 0
        from repro.video.io import load_video

        original = load_video(clip_path)
        decoded = load_video(out)
        assert decoded.resolution == original.resolution
        assert len(decoded) == len(original)

    def test_bitrate_mode(self, clip_path, tmp_path):
        stream = tmp_path / "clip.rpv"
        assert main(
            ["encode", str(clip_path), str(stream), "--bitrate", "50000",
             "--two-pass"]
        ) == 0

    def test_two_pass_requires_bitrate(self, clip_path, tmp_path, capsys):
        code = main(
            ["encode", str(clip_path), str(tmp_path / "x.rpv"), "--two-pass"]
        )
        assert code == 2

    def test_missing_input(self, tmp_path):
        assert main(["encode", str(tmp_path / "nope.y4m"), "out.rpv"]) == 2

    def test_decode_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.rpv"
        bad.write_bytes(b"not a bitstream, definitely")
        assert main(["decode", str(bad), str(tmp_path / "o.y4m")]) == 2


class TestAnalysis:
    def test_entropy(self, clip_path, capsys):
        assert main(["entropy", str(clip_path)]) == 0
        assert "bit/pixel/second" in capsys.readouterr().out

    def test_analyze(self, clip_path, capsys):
        assert main(["analyze", str(clip_path), "--preset", "veryfast"]) == 0
        out = capsys.readouterr().out
        assert "icache MPKI" in out
        assert "scalar fraction" in out


class TestSuiteCommands:
    def test_suite(self, capsys):
        assert main(["suite", "--profile", "tiny", "--k", "3", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 4  # header + 3 rows

    def test_run_scenario(self, capsys):
        assert main(
            ["run", "--profile", "tiny", "--k", "2", "--seed", "7",
             "--scenario", "live", "--backend", "qsv"]
        ) == 0
        out = capsys.readouterr().out
        assert "scenario=live" in out

    def test_unknown_backend(self, capsys):
        assert main(
            ["run", "--profile", "tiny", "--k", "2", "--seed", "7",
             "--scenario", "live", "--backend", "av9000"]
        ) == 2

    def test_run_parallel_cached_stdout_identical(self, tmp_path, capsys):
        base = ["run", "--profile", "tiny", "--k", "2", "--seed", "7",
                "--scenario", "upload", "--backend", "x264:veryfast"]
        assert main(base) == 0
        serial = capsys.readouterr()
        assert main(base + ["--jobs", "2", "--cache", str(tmp_path / "c")]) == 0
        parallel = capsys.readouterr()
        # Stdout must be byte-identical; cache stats go to stderr only.
        assert parallel.out == serial.out
        assert "cache:" in parallel.err
        assert "cache:" not in serial.err

    def test_refs_primes_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "refs-cache"
        assert main(
            ["refs", "--profile", "tiny", "--k", "2", "--seed", "7",
             "--scenario", "upload", "--jobs", "2", "--cache", str(cache_dir)]
        ) == 0
        captured = capsys.readouterr()
        assert "primed 2 references" in captured.out
        assert "stores=" in captured.err
        assert cache_dir.is_dir()


class TestChaos:
    ARGS = ["chaos", "--profile", "tiny", "--k", "3", "--seed", "99",
            "--delivery-backend", "x264:veryslow",
            "--fault-seed", "4", "--crash-rate", "0.3",
            "--straggler-rate", "0.05", "--corrupt-rate", "0.05",
            "--dead", "x264:veryslow", "--views", "500"]

    def test_runs_and_reports(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "RobustnessReport" in out
        assert "x264:veryslow: open" in out  # the dead backend's breaker
        assert "compute-hours" in out

    def test_same_seed_is_byte_identical(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == first

    def test_dead_everything_fails_gracefully(self, capsys):
        dead = []
        for spec in ("x264:veryslow", "x264:medium", "x264:veryfast",
                     "x264:ultrafast", "qsv"):
            dead += ["--dead", spec]
        assert main(["chaos", "--profile", "tiny", "--k", "2", "--seed", "99",
                     "--views", "0"] + dead) == 0
        assert "0 completed, 2 dead-lettered" in capsys.readouterr().out


class TestTraffic:
    ARGS = ["traffic", "--seed", "7", "--duration", "120", "--rps", "0.8",
            "--catalog", "6"]

    def test_runs_and_reports(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "SLOReport" in out
        assert "autoscaler events" in out

    def test_json_is_byte_identical_under_seed(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--json"]) == 0
        assert capsys.readouterr().out == first

    def test_bench_record_written(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_traffic.json"
        assert main(self.ARGS + ["--json", "--bench-out", str(bench)]) == 0
        captured = capsys.readouterr()
        assert "wrote" in captured.err  # diagnostics stay off stdout
        import json

        record = json.loads(bench.read_text())
        report = json.loads(captured.out)
        assert record["name"] == "traffic-slo"
        assert record["parameters"]["seed"] == 7
        assert record["metrics"]["throughput_rps"] == report["completed_rps"]

    def test_invalid_duration_exits_2(self, capsys):
        assert main(["traffic", "--duration", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_predictor_flag_flips_the_scheduler(self, capsys):
        assert main(self.ARGS + ["--predictor"]) == 0
        assert "scheduler:       predictor" in capsys.readouterr().out
        assert main(self.ARGS) == 0
        assert "scheduler:       ewma" in capsys.readouterr().out


class TestChaosTraffic:
    # Small chaotic profile; the committed-benchmark shape ("full" at
    # 300 s) is ci_smoke's to pin.
    ARGS = ["traffic", "--chaos", "crashes", "--seed", "7", "--duration",
            "90", "--rps", "0.8", "--catalog", "6"]

    def test_compares_all_three_arms(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "chaos comparison (profile=crashes)" in out
        assert "baseline:" in out
        assert "naive:" in out
        assert "recovery:" in out
        assert "deltas:" in out

    def test_bench_record_written(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_chaos.json"
        assert main(self.ARGS + ["--json", "--bench-out", str(bench)]) == 0
        captured = capsys.readouterr()
        assert "wrote" in captured.err
        import json

        record = json.loads(bench.read_text())
        assert record == json.loads(captured.out)
        assert record["name"] == "chaos-compare"
        assert set(record["arms"]) == {"baseline", "naive", "recovery"}
        assert record["parameters"]["profile"] == "crashes"
        assert record["arms"]["baseline"]["availability"] == 1.0

    def test_unknown_profile_exits_2(self, capsys):
        assert main(["traffic", "--chaos", "gremlins"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown chaos profile" in err


class TestSched:
    # A deliberately small profile: the defaults (catalog 48, 300 s) are
    # the committed-benchmark stress shape and belong to tools/ci_smoke.
    ARGS = ["sched", "--seed", "7", "--duration", "60", "--rps", "0.5",
            "--catalog", "6", "--workers", "3", "--spike-spacing", "30"]

    def test_compares_both_arms(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "sched comparison" in out
        assert "ewma:" in out
        assert "predictor:" in out
        assert "deltas:" in out

    def test_bench_record_written(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_sched.json"
        assert main(self.ARGS + ["--json", "--bench-out", str(bench)]) == 0
        captured = capsys.readouterr()
        assert "wrote" in captured.err
        import json

        record = json.loads(bench.read_text())
        assert record == json.loads(captured.out)
        assert record["name"] == "sched-compare"
        assert set(record["arms"]) == {"ewma", "predictor"}
        assert record["parameters"]["seed"] == 7


class TestRecordEmitter:
    # Text renderings of the three record-printing commands, hashed at the
    # commit before the one-emitter refactor: no byte may move.
    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (
                ["sched", "--duration", "60"],
                "cee799950331eda4e1f7563f9002658bc544109d940c0f0efd08f3fa56e5ee13",
            ),
            (
                ["traffic", "--seed", "7", "--duration", "60"],
                "ea64b5f9908d0892fb8a3d182fb504b5324a1095cefcd5e460b0bd7807d4068e",
            ),
            (
                ["traffic", "--chaos", "crashes", "--seed", "7", "--duration", "60"],
                "84875e358bcc30e528057bf5dedc9bd649eff6d8d0d32b54cff05a45d80de918",
            ),
        ],
    )
    def test_text_stdout_is_pinned(self, argv, sha256, capsys):
        import hashlib

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256

    @pytest.mark.parametrize(
        "argv", [TestTraffic.ARGS, TestChaosTraffic.ARGS, TestSched.ARGS]
    )
    def test_bench_out_into_a_missing_directory_fails_before_any_arm_runs(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        def run_traffic(**kwargs):
            raise AssertionError("an arm ran before --bench-out was checked")

        monkeypatch.setattr("repro.traffic.run_traffic", run_traffic)
        target = tmp_path / "missing" / "BENCH.json"
        assert main(argv + ["--bench-out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --bench-out")


class TestLintUsageErrors:
    FIXTURE = str(
        Path(__file__).parent / "fixtures" / "vlint" / "whole_program"
    )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--graph-out", "graph.json"], "--graph-out requires --whole-program"),
            (["--prune-baseline"], "--prune-baseline requires --whole-program"),
            (
                ["--whole-program", "--no-baseline", "--prune-baseline"],
                "--prune-baseline: no baseline file to prune",
            ),
        ],
    )
    def test_usage_errors_leave_stdout_empty(
        self, flags, message, tmp_path, capsys, monkeypatch
    ):
        # `repro lint --json ... > report.json` must not capture the error.
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--json", *flags, self.FIXTURE]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
