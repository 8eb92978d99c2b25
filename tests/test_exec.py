"""The execution layer: persistent transcode cache + process-pool runner."""

import struct

import pytest

from repro.core.benchmark import run_scenario, vbench_suite
from repro.core.scenarios import Scenario
from repro.encoders.base import RateSpec, Transcoder, TranscodeResult
from repro.encoders.software import X264Transcoder
from repro.exec.cache import (
    CACHE_VERSION,
    CacheCorruptError,
    CacheStats,
    CachingTranscoder,
    TranscodeCache,
    cache_key,
    video_digest,
)
from repro.exec.runner import prime_references, task_seed


class CountingTranscoder(Transcoder):
    """Delegates to a real backend while counting actual encodes."""

    def __init__(self, inner: Transcoder) -> None:
        self.inner = inner
        self.name = inner.name
        self.encodes = 0

    def transcode(self, video, rate) -> TranscodeResult:
        self.encodes += 1
        return self.inner.transcode(video, rate)


def _results_equal(a: TranscodeResult, b: TranscodeResult) -> bool:
    if (
        a.compressed_bytes != b.compressed_bytes
        or a.seconds != b.seconds
        or a.backend != b.backend
        or a.counters.as_dict() != b.counters.as_dict()
        or len(a.output) != len(b.output)
    ):
        return False
    return all(
        (fa.y == fb.y).all() and (fa.u == fb.u).all() and (fa.v == fb.v).all()
        for fa, fb in zip(a.output, b.output)
    )


class TestCacheKey:
    def test_video_digest_stable_and_content_sensitive(
        self, natural_video, sports_video
    ):
        assert video_digest(natural_video) == video_digest(natural_video)
        assert video_digest(natural_video) != video_digest(sports_video)

    def test_key_varies_with_knobs_and_rate(self, natural_video):
        medium = X264Transcoder("medium")
        fast = X264Transcoder("fast")
        crf = RateSpec.for_crf(23)
        assert cache_key(natural_video, medium, crf) == cache_key(
            natural_video, medium, crf
        )
        assert cache_key(natural_video, medium, crf) != cache_key(
            natural_video, fast, crf
        )
        assert cache_key(natural_video, medium, crf) != cache_key(
            natural_video, medium, RateSpec.for_crf(28)
        )
        assert cache_key(natural_video, medium, crf) != cache_key(
            natural_video, medium, RateSpec.for_bitrate(1e5)
        )


    def test_key_bytes_are_pinned(self):
        # Captured before key material was remembered per video and per
        # transcoder state: CACHE_VERSION stays 1 only while these hold,
        # i.e. while entries already on disk still hit.
        from repro.encoders import get_transcoder
        from repro.video.synthesis import synthesize

        clip = synthesize("sports", 64, 48, 4, 24.0, seed=3)
        assert cache_key(
            clip,
            X264Transcoder("medium"),
            RateSpec.for_bitrate(250000.0, two_pass=True),
        ) == "2550b6777dfc2eb14bae826c907cecefe2aa58c7d3f0ec44cf00633424bbade1"
        assert cache_key(
            clip, get_transcoder("qsv"), RateSpec.for_bitrate(250000.0)
        ) == "597f1876898eba61d4506f8371955007eaf776f33036bd1e575ac9cb02232d28"

    def test_remembered_key_material_cannot_go_stale(self, natural_video):
        # Key the originals first, so a digest or knob fragment remembered
        # on the wrong object (or kept past a change) would be reused.
        backend = X264Transcoder("medium")
        rate = RateSpec.for_crf(23)
        original = cache_key(natural_video, backend, rate)
        assert cache_key(natural_video, backend, rate) == original

        relabelled = natural_video.with_name("another-title")
        assert cache_key(relabelled, backend, rate) != original
        renominal = natural_video.with_nominal_resolution(1920, 1080)
        assert cache_key(renominal, backend, rate) != original
        assert cache_key(natural_video, backend, rate) == original

        derived = X264Transcoder("medium")
        derived.config = derived.config.derived(keyint=1)
        assert derived.name == backend.name
        assert cache_key(natural_video, derived, rate) != original
        # ... and a transcoder re-configured in place after it was keyed.
        backend.config = backend.config.derived(keyint=1)
        assert cache_key(natural_video, backend, rate) == cache_key(
            natural_video, derived, rate
        )
        # ... and a video relabelled in place (``name`` is a plain attribute).
        clip = natural_video.with_name(natural_video.name)
        assert cache_key(clip, X264Transcoder("medium"), rate) == original
        clip.name = "renamed-in-place"
        assert cache_key(clip, X264Transcoder("medium"), rate) != original


class TestTranscodeCache:
    def test_roundtrip_equality(self, tmp_path, natural_video):
        cache = TranscodeCache(tmp_path)
        backend = X264Transcoder("veryfast")
        rate = RateSpec.for_crf(28)
        original = backend.transcode(natural_video, rate)
        key = cache.key_for(natural_video, backend, rate)
        cache.store(key, original)
        replayed = cache.load(key, natural_video)
        assert replayed is not None
        assert _results_equal(original, replayed)
        assert replayed.source is natural_video

    def test_cold_stores_are_byte_identical(self, tmp_path, natural_video):
        # Two cold runs of one request: the encodes take different wall
        # time, the entries they leave behind must not show it.
        rate = RateSpec.for_crf(28)
        blobs = []
        for root in (tmp_path / "a", tmp_path / "b"):
            cache = TranscodeCache(root)
            cached = cache.wrap(X264Transcoder("veryfast"))
            cached.transcode(natural_video, rate)
            (entry,) = root.glob("*/*.vbt")
            blobs.append((entry.name, entry.read_bytes()))
            assert cache.stats.bytes_written == len(blobs[-1][1])
            replayed = cached.transcode(natural_video, rate)
            assert replayed.wall_seconds == 0.0
        assert blobs[0] == blobs[1]

    def test_persists_across_instances(self, tmp_path, natural_video):
        backend = X264Transcoder("veryfast")
        rate = RateSpec.for_crf(28)
        first = TranscodeCache(tmp_path)
        result = backend.transcode(natural_video, rate)
        key = first.key_for(natural_video, backend, rate)
        first.store(key, result)
        second = TranscodeCache(tmp_path)
        assert second.load(key, natural_video) is not None
        assert second.stats.hits == 1

    def test_miss_on_empty_cache(self, tmp_path, natural_video):
        cache = TranscodeCache(tmp_path)
        assert cache.load("0" * 64, natural_video) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def _stored_entry(self, tmp_path, video):
        cache = TranscodeCache(tmp_path)
        backend = X264Transcoder("veryfast")
        rate = RateSpec.for_crf(28)
        key = cache.key_for(video, backend, rate)
        cache.store(key, backend.transcode(video, rate))
        return cache, key, cache._path(key)

    def test_corrupt_payload_evicted(self, tmp_path, natural_video):
        from repro.exec.cache import _deserialize

        cache, key, path = self._stored_entry(tmp_path, natural_video)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload byte: checksum must catch it
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheCorruptError, match="checksum"):
            _deserialize(bytes(blob), natural_video)
        assert cache.load(key, natural_video) is None
        assert cache.stats.evictions == 1
        assert not path.exists()
        # The encode path recovers transparently.
        wrapped = cache.wrap(X264Transcoder("veryfast"))
        result = wrapped.transcode(natural_video, RateSpec.for_crf(28))
        assert result.compressed_bytes > 0

    def test_truncated_entry_evicted(self, tmp_path, natural_video):
        cache, key, path = self._stored_entry(tmp_path, natural_video)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert cache.load(key, natural_video) is None
        assert cache.stats.evictions == 1
        assert not path.exists()

    def test_bad_magic_evicted(self, tmp_path, natural_video):
        cache, key, path = self._stored_entry(tmp_path, natural_video)
        path.write_bytes(b"garbage" + path.read_bytes())
        assert cache.load(key, natural_video) is None
        assert cache.stats.evictions == 1

    def test_stale_version_evicted(self, tmp_path, natural_video):
        cache, key, path = self._stored_entry(tmp_path, natural_video)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 4, CACHE_VERSION + 1)
        path.write_bytes(bytes(blob))
        assert cache.load(key, natural_video) is None
        assert cache.stats.evictions == 1
        assert not path.exists()

    def test_geometry_mismatch_evicted(self, tmp_path, natural_video, sports_video):
        cache, key, path = self._stored_entry(tmp_path, natural_video)
        # Same entry looked up against a different source video.
        assert cache.load(key, sports_video) is None
        assert cache.stats.evictions == 1

    def test_entry_count(self, tmp_path, natural_video):
        cache, _, _ = self._stored_entry(tmp_path, natural_video)
        assert cache.entry_count() == 1


class TestCachingTranscoder:
    def test_warm_run_performs_zero_encodes(self, tmp_path, natural_video):
        cache = TranscodeCache(tmp_path)
        counting = CountingTranscoder(X264Transcoder("veryfast"))
        wrapped = cache.wrap(counting)
        rate = RateSpec.for_crf(28)
        cold = wrapped.transcode(natural_video, rate)
        assert counting.encodes == 1
        assert cache.stats.misses == 1 and cache.stats.stores == 1
        warm = wrapped.transcode(natural_video, rate)
        assert counting.encodes == 1  # zero new encodes
        assert cache.stats.hits == 1
        assert cache.stats.encodes == 1  # misses double as encode count
        assert _results_equal(cold, warm)

    def test_wrap_idempotent(self, tmp_path):
        cache = TranscodeCache(tmp_path)
        wrapped = cache.wrap(X264Transcoder("medium"))
        assert cache.wrap(wrapped) is wrapped
        other = TranscodeCache(tmp_path / "other")
        rewrapped = other.wrap(wrapped)
        assert isinstance(rewrapped, CachingTranscoder)
        assert rewrapped is not wrapped

    def test_name_mirrors_inner(self, tmp_path):
        cache = TranscodeCache(tmp_path)
        inner = X264Transcoder("medium")
        assert cache.wrap(inner).name == inner.name


class TestCacheStats:
    def test_merge_and_since(self):
        a = CacheStats(hits=2, misses=3, stores=3, bytes_written=10)
        before = a.copy()
        a.merge(CacheStats(hits=1, misses=1, seconds_saved=0.5))
        assert a.hits == 3 and a.misses == 4
        delta = a.since(before)
        assert delta.hits == 1 and delta.misses == 1
        assert delta.seconds_saved == 0.5
        assert "hits=3" in a.to_line()


class TestRunner:
    def test_task_seed_deterministic_and_distinct(self):
        a = task_seed(2017, Scenario.VOD, "clip", 0)
        assert a == task_seed(2017, Scenario.VOD, "clip", 0)
        assert a != task_seed(2017, Scenario.VOD, "clip", 1)
        assert a != task_seed(2017, Scenario.LIVE, "clip", 0)
        assert a != task_seed(2018, Scenario.VOD, "clip", 0)

    def test_parallel_report_matches_serial(self, tmp_path):
        serial = run_scenario(
            vbench_suite(profile="tiny", k=2, seed=2017),
            Scenario.UPLOAD,
            "x264:veryfast",
        )
        parallel = run_scenario(
            vbench_suite(profile="tiny", k=2, seed=2017),
            Scenario.UPLOAD,
            "x264:veryfast",
            jobs=2,
            cache=TranscodeCache(tmp_path),
        )
        assert parallel.to_table() == serial.to_table()

    def test_warm_cache_suite_run_reencodes_nothing(self, tmp_path):
        cache = TranscodeCache(tmp_path)
        cold = run_scenario(
            vbench_suite(profile="tiny", k=2, seed=2017),
            Scenario.UPLOAD,
            "x264:veryfast",
            cache=cache,
        )
        assert cold.cache is not None and cold.cache.misses > 0
        warm = run_scenario(
            vbench_suite(profile="tiny", k=2, seed=2017),
            Scenario.UPLOAD,
            "x264:veryfast",
            jobs=2,
            cache=cache,
        )
        assert warm.cache is not None
        assert warm.cache.misses == 0  # zero new encodes
        assert warm.cache.hits > 0
        assert warm.to_table() == cold.to_table()
        assert "misses=0" in warm.cache_summary()

    def test_cached_hardware_backend_stays_single_pass(self, tmp_path):
        # The VOD recipe picks two-pass by inspecting the backend class;
        # it must see through the cache wrapper, or hardware backends
        # (no two-pass mode) fail the moment a cache is attached.
        report = run_scenario(
            vbench_suite(profile="tiny", k=2, seed=2017),
            Scenario.VOD,
            "nvenc",
            bisect_iterations=3,
            cache=TranscodeCache(tmp_path),
        )
        assert len(report.scores) == 2

    def test_unpicklable_backend_rejected_for_parallel(self):
        suite = vbench_suite(profile="tiny", k=2, seed=2017)
        backend = X264Transcoder("medium")
        backend.poison = lambda: None  # lambdas do not pickle
        with pytest.raises(ValueError, match="picklable"):
            run_scenario(suite, Scenario.UPLOAD, backend, jobs=2)

    def test_jobs_validation(self):
        suite = vbench_suite(profile="tiny", k=2, seed=2017)
        with pytest.raises(ValueError, match="job"):
            run_scenario(suite, Scenario.UPLOAD, "x264:medium", jobs=0)

    def test_prime_references_installs_and_persists(self, tmp_path):
        cache = TranscodeCache(tmp_path)
        suite = vbench_suite(profile="tiny", k=2, seed=2017)
        stats = prime_references(suite, Scenario.UPLOAD, jobs=2, cache=cache)
        assert stats.stores > 0
        for entry in suite:
            assert suite.references.has(entry.video, Scenario.UPLOAD)
        # A primed suite scores without a single new reference encode.
        report = run_scenario(suite, Scenario.UPLOAD, "x264:medium", cache=cache)
        assert report.cache is not None
        assert report.cache.evictions == 0


class TestFarmCache:
    def test_farm_books_cache_savings(self, tmp_path, natural_video):
        from repro.pipeline.farm import TranscodeFarm

        cache = TranscodeCache(tmp_path)
        first = TranscodeFarm(cache=cache)
        first.upload(natural_video)
        first.finalize()
        assert first.costs.cache is not None
        assert first.costs.cache.misses > 0
        second = TranscodeFarm(cache=cache)
        second.upload(natural_video)
        second.finalize()
        assert second.costs.cache is not None
        assert second.costs.cache.misses == 0
        assert second.costs.cache.hits > 0
        assert second.costs.compute_hours_saved > 0.0

    def test_farm_chaos_still_injects_through_cache(self, tmp_path, natural_video):
        from repro.pipeline.farm import TranscodeFarm
        from repro.robust.faults import FaultPlan

        cache = TranscodeCache(tmp_path)
        plan = FaultPlan(seed=1, crash_rate=1.0)  # every first attempt dies
        farm = TranscodeFarm(fault_plan=plan, cache=cache)
        farm.upload(natural_video)
        report = farm.finalize()
        assert report.transient_failures > 0
