"""Popularity model: power-law-with-cutoff shape properties."""

import numpy as np
import pytest

from repro.corpus.popularity import PopularityModel


class TestShape:
    def test_views_decrease_with_rank(self):
        views = PopularityModel().views(1000)
        assert np.all(np.diff(views) <= 0)

    def test_total_views_preserved(self):
        model = PopularityModel(total_views=5e6)
        assert model.views(500).sum() == pytest.approx(5e6)

    def test_head_concentration(self):
        """Most watch time concentrates in a few popular videos."""
        model = PopularityModel(alpha=1.0, cutoff_rank=1e4)
        views = model.views(100_000)
        assert views[:1000].sum() / views.sum() > 0.5  # top 1%

    def test_cutoff_kills_deep_tail(self):
        with_cutoff = PopularityModel(alpha=0.8, cutoff_rank=100)
        without = PopularityModel(alpha=0.8, cutoff_rank=1e12)
        n = 10_000
        tail_share_cut = with_cutoff.views(n)[5000:].sum() / with_cutoff.total_views
        tail_share_raw = without.views(n)[5000:].sum() / without.total_views
        assert tail_share_cut < tail_share_raw

    def test_raw_mass_rejects_zero_rank(self):
        with pytest.raises(ValueError):
            PopularityModel().raw_mass(np.array([0]))


class TestSampling:
    def test_sample_ranks_in_range(self, rng):
        model = PopularityModel()
        ranks = model.sample_ranks(500, 100, rng)
        assert ranks.min() >= 1
        assert ranks.max() <= 100

    def test_samples_skew_to_head(self, rng):
        model = PopularityModel(alpha=1.2)
        ranks = model.sample_ranks(5000, 1000, rng)
        assert np.median(ranks) < 250

    def test_zero_samples(self, rng):
        assert PopularityModel().sample_ranks(0, 10, rng).size == 0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0},
            {"cutoff_rank": 0},
            {"total_views": 0},
            {"alpha": float("nan")},
            {"alpha": float("inf")},
            {"cutoff_rank": float("nan")},
            {"cutoff_rank": float("inf")},
            {"total_views": float("nan")},
            {"total_views": float("inf")},
        ],
    )
    def test_constructor(self, kwargs):
        with pytest.raises(ValueError):
            PopularityModel(**kwargs)

    def test_sampling_from_empty_catalog_rejected(self, rng):
        with pytest.raises(ValueError, match="empty catalog"):
            PopularityModel().sample_ranks(5, 0, rng)
        with pytest.raises(ValueError, match="empty catalog"):
            PopularityModel().sample_ranks(5, -1, rng)

    def test_views_needs_positive_corpus(self):
        with pytest.raises(ValueError):
            PopularityModel().views(0)
