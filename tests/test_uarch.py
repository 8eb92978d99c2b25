"""Microarchitecture simulators: caches, predictors, CPU model, Top-Down."""

import numpy as np
import pytest

from repro.uarch.branch import BimodalPredictor, GsharePredictor
from repro.uarch.cache import SetAssociativeCache
from repro.uarch.cpu import CpuModel, profile_encode
from repro.uarch.topdown import TopDownBreakdown, top_down


class TestCache:
    def test_cold_miss_then_hit(self):
        cache = SetAssociativeCache(1024, 64, ways=2)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(63)  # same line
        assert not cache.access(64)  # next line

    def test_lru_eviction(self):
        cache = SetAssociativeCache(2 * 64 * 1, 64, ways=2)  # 1 set, 2 ways
        a, b, c = 0, 64, 128
        cache.access(a)
        cache.access(b)
        cache.access(a)  # a most recent
        cache.access(c)  # evicts b
        assert cache.access(a)
        assert not cache.access(b)

    def test_capacity_working_set(self):
        cache = SetAssociativeCache(4096, 64, ways=4)
        fits = np.arange(0, 4096, 64)
        cache.access_many(fits)
        cache.reset_stats()
        cache.access_many(fits)
        assert cache.misses == 0
        big = np.arange(0, 3 * 4096, 64)
        cache.access_many(big)
        cache.reset_stats()
        cache.access_many(big)
        assert cache.misses / cache.accesses > 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(1000, 64, 8)  # not divisible
        with pytest.raises(ValueError):
            SetAssociativeCache(1024, 60, 2)  # line not power of two
        with pytest.raises(ValueError):
            SetAssociativeCache(3 * 64 * 2, 64, 2)  # sets not power of two


class TestPredictors:
    def test_learns_constant_branch(self):
        predictor = BimodalPredictor()
        for _ in range(50):
            predictor.predict_and_update(100, True)
        assert predictor.mispredictions / predictor.predictions < 0.1

    def test_random_branch_near_half(self, rng):
        predictor = BimodalPredictor()
        outcomes = rng.integers(0, 2, size=2000)
        predictor.run(np.full(2000, 7), outcomes)
        assert 0.3 < predictor.mispredictions / 2000 < 0.7

    def test_gshare_learns_pattern_bimodal_cannot(self):
        pattern = [True, True, False] * 400
        bimodal = BimodalPredictor(table_bits=12)
        gshare = GsharePredictor(table_bits=12, history_bits=8)
        for taken in pattern:
            bimodal.predict_and_update(5, taken)
            gshare.predict_and_update(5, taken)
        assert gshare.mispredictions < bimodal.mispredictions

    def test_run_shape_mismatch(self):
        with pytest.raises(ValueError):
            BimodalPredictor().run(np.zeros(3), np.zeros(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            BimodalPredictor(table_bits=0)
        with pytest.raises(ValueError):
            GsharePredictor(table_bits=10, history_bits=11)


class TestCpuModel:
    def test_profile_encode(self, natural_video):
        from repro.simd.analysis import modeled_instructions

        profile = profile_encode(natural_video, config="veryfast", crf=28)
        assert profile.instructions > 0
        # The encode's counters ride along: the instruction count is theirs.
        assert profile.instructions == modeled_instructions(profile.counters)
        assert profile.icache_accesses > 0
        assert profile.branch_count > 0
        assert profile.icache_mpki >= 0
        assert profile.llc_mpki >= 0

    def test_smaller_icache_raises_icache_mpki(self, natural_video):
        default = profile_encode(natural_video, config="veryfast", crf=28)
        small = profile_encode(
            natural_video, config="veryfast", crf=28, cpu=CpuModel(icache_kib=2)
        )
        assert small.icache_mpki > 2 * default.icache_mpki
        assert small.branch_mpki == default.branch_mpki

    def test_mpki_requires_instructions(self):
        from repro.uarch.cpu import UarchProfile

        profile = UarchProfile(0, 1, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            profile.icache_mpki

    def test_sampling_roughly_preserves_mpki(self, sports_video):
        full = profile_encode(sports_video, config="veryfast", crf=28)
        sampled = profile_encode(
            sports_video, config="veryfast", crf=28, sample_stride=2
        )
        assert sampled.branch_mpki == pytest.approx(full.branch_mpki, rel=0.75)

    def test_rate_mode_args(self, natural_video):
        with pytest.raises(ValueError):
            profile_encode(natural_video, crf=20, bitrate_bps=1e5)

    def test_entropy_increases_icache_pressure(self, all_content_videos):
        """Figure 5's headline trend."""
        lo = profile_encode(all_content_videos["slideshow"], crf=23)
        hi = profile_encode(all_content_videos["sports"], crf=23)
        assert hi.icache_mpki > lo.icache_mpki

    def test_entropy_increases_branch_mispredicts(self, all_content_videos):
        lo = profile_encode(all_content_videos["slideshow"], crf=23)
        hi = profile_encode(all_content_videos["gaming"], crf=23)
        assert hi.branch_mpki > lo.branch_mpki


class TestTopDown:
    def test_fractions_sum_to_one(self, natural_video):
        profile = profile_encode(natural_video, config="veryfast", crf=28)
        breakdown = top_down(profile.counters, profile)
        assert isinstance(breakdown, TopDownBreakdown)
        assert sum(breakdown.as_dict().values()) == pytest.approx(1.0)
        assert breakdown.retiring > 0.3  # the paper's dominant bucket

    def test_empty_counters_rejected(self):
        from repro.codec.instrumentation import Counters
        from repro.uarch.cpu import UarchProfile

        with pytest.raises(ValueError):
            top_down(Counters(), UarchProfile(1, 0, 0, 0, 0, 0, 0))
