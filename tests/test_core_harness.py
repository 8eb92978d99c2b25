"""References, bisection, benchmark suite and scenario runs."""

import pytest

from repro.core.benchmark import BenchmarkSuite, SuiteVideo, run_platform, run_scenario, vbench_suite
from repro.core.harness import bisect_to_quality
from repro.core.reference import ReferenceStore, live_ladder, vod_target_bitrate
from repro.core.scenarios import Scenario
from repro.encoders import NvencTranscoder, X264Transcoder
from repro.simd.isa import IsaLevel
from repro.video.synthesis import synthesize


def _scripted_backend(qualities):
    """A stub transcoder replaying a fixed quality per call, in order.

    ``compressed_bytes`` mirrors the requested bitrate so tests can tell
    which attempt the bisection returned.
    """
    from repro.codec.instrumentation import Counters
    from repro.encoders.base import Transcoder, TranscodeResult

    class _Result(TranscodeResult):
        scripted_quality = 0.0

        @property
        def quality_db(self):
            return self.scripted_quality

    class _Scripted(Transcoder):
        name = "scripted"

        def __init__(self):
            self.calls = 0

        def transcode(self, video, rate):
            quality = qualities[min(self.calls, len(qualities) - 1)]
            self.calls += 1
            result = _Result(
                source=video,
                output=video,
                compressed_bytes=int(rate.bitrate_bps),
                seconds=1e-3,
                counters=Counters(),
                backend=self.name,
            )
            result.scripted_quality = quality
            return result

    return _Scripted()


@pytest.fixture(scope="module")
def suite():
    """A 3-video mini-suite built from real synthesized content."""
    videos = []
    for i, (content, nominal) in enumerate(
        [("screencast", (1280, 720)), ("natural", (854, 480)), ("gaming", (1920, 1080))]
    ):
        clip = synthesize(content, 64, 48, 8, 12.0, seed=30 + i, name=f"{content}{i}")
        clip = clip.with_nominal_resolution(*nominal)
        videos.append(
            SuiteVideo(
                name=clip.name,
                video=clip,
                kpixels=nominal[0] * nominal[1] // 1000,
                framerate=12,
                entropy=1.0 + i,
                nominal_resolution=nominal,
            )
        )
    from repro.corpus.synthetic import PROFILES

    return BenchmarkSuite(videos=videos, profile=PROFILES["tiny"], seed=0)


class TestReferences:
    def test_vod_target_positive(self, suite):
        target = vod_target_bitrate(suite.videos[1].video)
        assert target > 0

    def test_store_caches(self, suite):
        store = ReferenceStore()
        video = suite.videos[0].video
        a = store.reference(video, Scenario.VOD)
        b = store.reference(video, Scenario.VOD)
        assert a is b

    def test_vod_and_platform_share_settings(self, suite):
        store = ReferenceStore()
        video = suite.videos[0].video
        vod = store.reference(video, Scenario.VOD)
        platform = store.reference(video, Scenario.PLATFORM)
        assert vod.config_label == platform.config_label

    def test_live_reference_meets_realtime(self, suite):
        store = ReferenceStore()
        for entry in suite:
            ref = store.reference(entry.video, Scenario.LIVE)
            realtime = entry.video.nominal_pixel_rate / 1e6
            # Either realtime was met, or the ladder bottomed out (turbo).
            assert (
                ref.result.speed_mpixels >= realtime
                or "turbo" in ref.config_label
            )

    def test_live_ladder_ordered_by_effort(self):
        ladder = live_ladder()
        assert ladder[0][0] == "medium"
        assert ladder[-1][0] == "turbo"

    def test_popular_reference_higher_quality_than_vod(self, suite):
        store = ReferenceStore()
        video = suite.videos[2].video
        vod = store.reference(video, Scenario.VOD)
        pop = store.reference(video, Scenario.POPULAR)
        # Same target bitrate, higher effort: quality at least comparable.
        assert pop.result.quality_db >= vod.result.quality_db - 0.3

    def test_unnamed_video_rejected(self, natural_video):
        store = ReferenceStore()
        with pytest.raises(ValueError, match="named"):
            store.reference(natural_video.with_name(""), Scenario.VOD)


class TestBisection:
    def test_reaches_target(self, suite):
        video = suite.videos[1].video
        hw = NvencTranscoder()
        probe = hw.transcode(
            video, __import__("repro.encoders.base", fromlist=["RateSpec"]).RateSpec.for_bitrate(5e4)
        )
        target = probe.quality_db + 1.0
        result = bisect_to_quality(
            hw, video, target_db=target, initial_bitrate=5e4, iterations=7
        )
        assert result.quality_db >= target - 0.06

    def test_shrinks_overshoot(self, suite):
        video = suite.videos[0].video
        sw = X264Transcoder("veryfast")
        generous = bisect_to_quality(
            sw, video, target_db=35.0, initial_bitrate=5e6, iterations=6
        )
        assert generous.quality_db >= 34.95
        # Must have bisected down well below the generous initial rate.
        assert generous.bitrate < 5e6

    def test_validation(self, suite):
        with pytest.raises(ValueError):
            bisect_to_quality(
                X264Transcoder(), suite.videos[0].video, 40.0, initial_bitrate=0
            )
        with pytest.raises(ValueError):
            bisect_to_quality(
                X264Transcoder(), suite.videos[0].video, 40.0, 1e5, iterations=0
            )
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                bisect_to_quality(
                    X264Transcoder(), suite.videos[0].video, 40.0, bad
                )


class TestBisectionEdgeCases:
    """Scripted backends pin down the bracket/bisect corner behavior."""

    def test_single_iteration_returns_initial_result(self, suite):
        backend = _scripted_backend([45.0])
        result = bisect_to_quality(
            backend, suite.videos[0].video, 40.0, initial_bitrate=1e5,
            iterations=1,
        )
        assert backend.calls == 1
        assert result.compressed_bytes == int(1e5)

    def test_never_reaches_target_reports_best_try(self, suite):
        # Quality never crosses 40 dB no matter the bitrate: the bisection
        # must hand back its last upward-bracketing attempt rather than
        # raise or return None (the caller's constraint check then fails
        # the video, which is itself a result).
        backend = _scripted_backend([20.0, 25.0, 30.0, 31.0])
        result = bisect_to_quality(
            backend, suite.videos[0].video, 40.0, initial_bitrate=1e5,
            iterations=4,
        )
        assert backend.calls == 4
        assert result.quality_db < 40.0
        # Each bracket step doubled the rate: the report is the 8e5 try.
        assert result.compressed_bytes == int(8e5)

    def test_downward_bracket_is_tight(self, suite):
        # Initial 1e5 passes, 5e4 passes, 2.5e4 fails: the bracket is now
        # (2.5e4, 5e4) -- every point above 5e4 is already known to pass.
        # The first bisection probe must therefore be 3.75e4, not the
        # 6.25e4 a stale hi=initial_bitrate would produce.
        backend = _scripted_backend([45.0, 45.0, 30.0, 45.0])
        result = bisect_to_quality(
            backend, suite.videos[0].video, 40.0, initial_bitrate=1e5,
            iterations=4,
        )
        assert backend.calls == 4
        assert result.quality_db >= 40.0
        assert result.compressed_bytes == int(3.75e4)

    def test_non_monotonic_quality_keeps_cheapest_passing(self, suite):
        # Quality dips below target at the halved rate, then a bisection
        # probe passes again: the best-so-far tracking must return the
        # cheapest encode that satisfied the target, not the last one.
        backend = _scripted_backend([45.0, 30.0, 45.0, 30.0])
        result = bisect_to_quality(
            backend, suite.videos[0].video, 40.0, initial_bitrate=1e5,
            iterations=4,
        )
        assert backend.calls == 4
        assert result.quality_db >= 40.0
        # Passing encodes happened at 1e5 and the 7.5e4 midpoint; the
        # midpoint is smaller, so it wins.
        assert result.compressed_bytes == int(7.5e4)


class TestRunScenario:
    def test_vod_run(self, suite):
        report = run_scenario(suite, Scenario.VOD, "nvenc", bisect_iterations=5)
        assert len(report.scores) == 3
        table = report.to_table()
        assert "nvenc" in table
        for score in report.scores:
            assert score.ratios.speed > 1.0  # hardware is faster

    def test_live_run(self, suite):
        report = run_scenario(suite, Scenario.LIVE, "qsv")
        assert all(s.ratios.new_speed_mpixels > 0 for s in report.scores)

    def test_the_package_quickstart_call_binds(self):
        import ast
        import inspect
        import textwrap

        import repro

        snippet = repro.__doc__.split("Quickstart::")[1]
        calls = [
            node
            for node in ast.walk(ast.parse(textwrap.dedent(snippet)))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", "") == "run_scenario"
        ]
        assert len(calls) == 1
        inspect.signature(run_scenario).bind(
            *calls[0].args, **{kw.arg: kw.value for kw in calls[0].keywords}
        )

    def test_platform_requires_dedicated_entry(self, suite):
        with pytest.raises(ValueError, match="run_platform"):
            run_scenario(suite, Scenario.PLATFORM, "x264")

    def test_run_platform(self, suite):
        rows = run_platform(suite, isa=IsaLevel.SSE2)
        assert len(rows) == 3
        for _, speedup in rows:
            assert speedup < 1.0  # SSE2 is slower than the AVX2 baseline
        rows_same = run_platform(suite, isa=IsaLevel.AVX2)
        for _, speedup in rows_same:
            assert speedup == pytest.approx(1.0)


class TestVbenchSuite:
    def test_isolated_suites_share_selection(self):
        # The expensive selection is cached, but every caller gets its own
        # suite and reference store: one run's references must never leak
        # into (or be perturbed by) another's.
        a = vbench_suite(profile="tiny", k=3, seed=99)
        b = vbench_suite(profile="tiny", k=3, seed=99)
        assert a is not b
        assert a.references is not b.references
        assert a.table2() == b.table2()
        # The underlying Video objects are shared (immutable, expensive).
        assert all(
            va.video is vb.video for va, vb in zip(a.videos, b.videos)
        )

    def test_reference_accumulation_does_not_leak(self):
        a = vbench_suite(profile="tiny", k=2, seed=99)
        entry = a.videos[0]
        a.references.reference(entry.video, Scenario.VOD)
        b = vbench_suite(profile="tiny", k=2, seed=99)
        assert not b.references.has(entry.video, Scenario.VOD)

    def test_suite_membership_immutable(self):
        suite = vbench_suite(profile="tiny", k=2, seed=99)
        assert isinstance(suite.videos, tuple)

    def test_table2_shape(self):
        suite = vbench_suite(profile="tiny", k=3, seed=99)
        rows = suite.table2()
        assert len(rows) == 3
        for res, name, fps, entropy in rows:
            assert "x" in res
            assert entropy > 0

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            vbench_suite(profile="gigantic", k=3, seed=1)

    def test_empty_suite_rejected(self):
        from repro.corpus.synthetic import PROFILES

        with pytest.raises(ValueError):
            BenchmarkSuite(videos=[], profile=PROFILES["tiny"], seed=0)
