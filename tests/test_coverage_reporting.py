"""Coverage analysis (Fig. 4) and reporting rules (Section 4.3)."""

import pytest

from repro.core.coverage import (
    CoverageMetrics,
    compare_suites,
    coverage_metrics,
    scatter_points,
)
from repro.core.reporting import format_scores
from repro.core.scenarios import Ratios, Scenario, ScenarioScore
from repro.corpus.category import VideoCategory
from repro.corpus.datasets import coverage_set, dataset_categories


class TestCoverage:
    def test_scatter_points(self):
        cats = [VideoCategory(854, 480, 30, 2.5)]
        assert scatter_points(cats) == [(410.0, 2.5)]

    def test_full_coverage_zero_gap(self):
        target = coverage_set(samples_per_combo=3)
        metrics = coverage_metrics(target, target)
        assert isinstance(metrics, CoverageMetrics)
        assert metrics.mean_gap == pytest.approx(0.0)
        assert metrics.max_gap == pytest.approx(0.0)

    def test_netflix_covers_worse_than_wide_suite(self):
        """Figure 4's visual claim as a number: single-resolution,
        high-entropy-only datasets leave big holes in the corpus."""
        target = coverage_set(samples_per_combo=5)
        netflix = dataset_categories("netflix")
        wide = [
            VideoCategory(w, h, fps, e)
            for (w, h) in [(320, 240), (854, 480), (1920, 1080), (3840, 2160)]
            for fps in (12, 30, 60)
            for e in (0.05, 0.5, 3.0, 20.0)
        ]
        netflix_metrics = coverage_metrics(netflix, target)
        wide_metrics = coverage_metrics(wide, target)
        assert wide_metrics.max_gap < netflix_metrics.max_gap
        assert wide_metrics.mean_gap < netflix_metrics.mean_gap

    def test_entropy_decades(self):
        cats = [VideoCategory(854, 480, 30, e) for e in (0.1, 10.0)]
        metrics = coverage_metrics(cats, cats)
        assert metrics.entropy_decades == pytest.approx(2.0)

    def test_compare_suites(self):
        target = coverage_set(samples_per_combo=3)
        result = compare_suites(
            {"netflix": dataset_categories("netflix")}, target
        )
        assert "netflix" in result

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coverage_metrics([], dataset_categories("netflix"))


def _score(name="v", score=1.5, met=True):
    ratios = Ratios(
        speed=2.0, bitrate=0.8, quality=1.01,
        new_quality_db=40.0, new_speed_mpixels=10.0,
    )
    return ScenarioScore(
        scenario=Scenario.VOD,
        video_name=name,
        ratios=ratios,
        constraint_met=met,
        score=score if met else None,
    )


class TestReporting:
    def test_format_scores_has_all_videos(self):
        table = format_scores([_score("a"), _score("b", met=False)], title="t")
        assert "a" in table and "b" in table
        assert "-" in table  # failed constraint renders as dash


class TestMotivation:
    def test_growth_normalized_to_base(self):
        from repro.core.motivation import YOUTUBE_HOURS_PER_MINUTE, growth_since

        series = dict(growth_since(YOUTUBE_HOURS_PER_MINUTE, 2007))
        assert series[2007] == pytest.approx(1.0)
        assert series[2016] > 50.0

    def test_gap_shows_divergence(self):
        from repro.core.motivation import growth_gap

        assert growth_gap(2016) > 3.0  # uploads far outgrow CPUs

    def test_bad_year(self):
        from repro.core.motivation import growth_gap

        with pytest.raises(ValueError):
            growth_gap(2030)
