"""Corpus substrate: categories, synthetic population, datasets."""

import numpy as np
import pytest

from repro.corpus.category import VideoCategory, feature_matrix
from repro.corpus.datasets import PUBLIC_DATASETS, coverage_set, dataset_categories
from repro.corpus.synthetic import (
    PROFILES,
    RenderProfile,
    SyntheticCorpus,
    _group_uploads,
    content_class_for_entropy,
    video_for_category,
)

#: (categories, digest of every field, field type and weight byte) of the
#: default-size corpus, captured from the per-upload dict loop below.
CORPUS_PINS = {
    2017: (32378, "9d927bf49e251e3cc206172d0b229966190b65592a4a53335521d14490029778"),
    7: (32254, "d5808ebd276b58dd3774321309de369ca5f5977a821a73b0646937555a17cbb5"),
}


def _dict_loop(resolutions, res_idx, fps, entropy, minutes):
    """Oracle: the per-upload dict loop the corpus used to group with."""
    weights = {}
    for i in range(len(res_idx)):
        w, h = resolutions[res_idx[i]]
        e = max(0.1, round(float(entropy[i]), 1))
        key = (w, h, int(fps[i]), e)
        cost = w * h * fps[i] * minutes[i]
        weights[key] = weights.get(key, 0.0) + cost
    return [
        VideoCategory(w, h, f, e, weight=cost)
        for (w, h, f, e), cost in sorted(weights.items())
    ]


class TestCategory:
    def test_kpixels(self):
        cat = VideoCategory(1920, 1080, 30, 3.0)
        assert cat.kpixels == 2074

    def test_key_rounds_entropy(self):
        cat = VideoCategory(854, 480, 30, 3.14159)
        assert cat.key() == (410, 30, 3.1)

    def test_features_log_transformed(self):
        low = VideoCategory(854, 480, 30, 1.0)
        high = VideoCategory(854, 480, 30, 2.0)
        assert high.features()[2] - low.features()[2] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            VideoCategory(0, 480, 30, 1.0)
        with pytest.raises(ValueError):
            VideoCategory(854, 480, 0, 1.0)
        with pytest.raises(ValueError):
            VideoCategory(854, 480, 30, 0.0)
        with pytest.raises(ValueError):
            VideoCategory(854, 480, 30, 1.0, weight=-1)

    def test_feature_matrix_normalized(self):
        cats = [
            VideoCategory(854, 480, 15, 0.5),
            VideoCategory(1920, 1080, 30, 5.0),
            VideoCategory(3840, 2160, 60, 50.0),
        ]
        feats = feature_matrix(cats)
        assert feats.min() == pytest.approx(-1.0)
        assert feats.max() == pytest.approx(1.0)

    def test_feature_matrix_degenerate_column(self):
        cats = [VideoCategory(854, 480, 30, e) for e in (1.0, 2.0)]
        feats = feature_matrix(cats)
        assert np.allclose(feats[:, 0], 0.0)  # same resolution
        assert np.allclose(feats[:, 1], 0.0)  # same fps

    def test_feature_matrix_empty(self):
        with pytest.raises(ValueError):
            feature_matrix([])


class TestSyntheticCorpus:
    @pytest.fixture(scope="class")
    def corpus(self):
        return SyntheticCorpus(seed=7, n_uploads=20_000)

    def test_category_volume(self, corpus):
        """The paper reports ~3500 significant categories."""
        assert len(corpus) > 1000

    def test_deterministic(self):
        a = SyntheticCorpus(seed=3, n_uploads=2000)
        b = SyntheticCorpus(seed=3, n_uploads=2000)
        assert [c.key() for c in a.categories] == [c.key() for c in b.categories]

    def test_resolution_diversity(self, corpus):
        resolutions = {(c.width, c.height) for c in corpus.categories}
        assert len(resolutions) >= 30

    def test_entropy_spans_decades(self, corpus):
        entropies = [c.entropy for c in corpus.categories]
        assert min(entropies) <= 0.2
        assert max(entropies) >= 30.0

    def test_weights_positive_and_normalizable(self, corpus):
        assert corpus.total_weight > 0
        assert all(c.weight > 0 for c in corpus.categories)

    def test_significant_filter(self, corpus):
        sig = corpus.significant_categories(min_share=1e-4)
        assert 0 < len(sig) < len(corpus)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticCorpus(n_uploads=0)


class TestCorpusGrouping:
    @pytest.mark.parametrize("seed", sorted(CORPUS_PINS))
    def test_pinned(self, seed, categories_digest):
        corpus = SyntheticCorpus(seed=seed)
        assert (len(corpus), categories_digest(corpus.categories)) == CORPUS_PINS[seed]

    def test_field_types(self):
        c = SyntheticCorpus(seed=3, n_uploads=50).categories[0]
        types = [type(v) for v in (c.width, c.height, c.framerate, c.entropy, c.weight)]
        assert types == [int, int, int, float, np.float64]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dict_loop(self, seed, categories_digest):
        """Random uploads, most keys shared: same categories, same bits."""
        rng = np.random.default_rng(seed)
        n = (1, 2, 17, 500, 3000)[seed % 5]
        sizes = rng.integers(8, 1024, size=(int(rng.integers(1, 10)), 2)) * 2
        resolutions = list(dict.fromkeys(map(tuple, sizes.tolist())))
        res_idx = rng.integers(0, len(resolutions), size=n)
        fps = rng.choice((6, 24, 25, 30, 60), size=n)
        # Wide enough that many entropies round to 0.0 and clamp to 0.1;
        # a third sit on decimal ties like 0.35, where np.round and
        # Python's round disagree.
        entropy = np.exp(rng.normal(0.0, 2.5, size=n))
        ties = rng.random(n) < 0.3
        entropy[ties] = rng.integers(0, 500, size=int(ties.sum())) / 10 + 0.05
        minutes = np.exp(rng.normal(1.0, 0.9, size=n))
        minutes[rng.random(n) < 0.1] = 0.0
        args = (resolutions, res_idx, fps, entropy, minutes)
        assert categories_digest(_group_uploads(*args)) == categories_digest(
            _dict_loop(*args)
        )


class TestVideoForCategory:
    def test_renders_scaled_standin(self):
        cat = VideoCategory(1920, 1080, 30, 5.0)
        video = video_for_category(cat, profile="tiny", seed=1)
        assert video.nominal_resolution == (1920, 1080)
        assert video.width < 1920
        assert video.fps == 30.0

    def test_profile_scaling(self):
        cat = VideoCategory(1920, 1080, 30, 5.0)
        tiny = video_for_category(cat, profile="tiny")
        full = video_for_category(cat, profile="full")
        assert full.width > tiny.width

    def test_content_class_bands(self):
        assert content_class_for_entropy(0.2) == "slideshow"
        assert content_class_for_entropy(100.0) == "sports"
        with pytest.raises(ValueError):
            content_class_for_entropy(0.0)

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="profile"):
            video_for_category(VideoCategory(854, 480, 30, 1.0), profile="huge")

    def test_render_profile_validation(self):
        with pytest.raises(ValueError):
            RenderProfile("x", 0, 8)
        with pytest.raises(ValueError):
            RenderProfile("x", 4, 1)

    def test_geometry_floors(self):
        profile = PROFILES["tiny"]
        w, h = profile.render_geometry(176, 144)
        assert w >= 32 and h >= 32 and w % 2 == 0 and h % 2 == 0


class TestDatasets:
    def test_known_datasets(self):
        assert set(PUBLIC_DATASETS) == {
            "netflix",
            "xiph",
            "spec2006",
            "spec2017",
            "coverage",
        }

    def test_netflix_is_single_resolution_high_entropy(self):
        cats = dataset_categories("netflix")
        assert len(cats) == 9
        assert {(c.width, c.height) for c in cats} == {(1920, 1080)}
        assert all(c.entropy >= 1.0 for c in cats)

    def test_xiph_count_and_entropy_floor(self):
        cats = dataset_categories("xiph")
        assert len(cats) == 41
        assert all(c.entropy >= 1.0 for c in cats)

    def test_spec_suites_tiny(self):
        assert len(dataset_categories("spec2006")) == 2
        spec17 = dataset_categories("spec2017")
        assert abs(spec17[0].entropy - spec17[1].entropy) < 0.2

    def test_coverage_grid(self):
        cats = coverage_set(samples_per_combo=5)
        assert len(cats) == 6 * 8 * 5
        entropies = sorted({c.entropy for c in cats})
        assert entropies[0] < 0.05
        assert entropies[-1] > 20

    def test_coverage_validation(self):
        with pytest.raises(ValueError):
            coverage_set(samples_per_combo=1)

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            dataset_categories("blender")

    def test_returns_copy(self):
        cats = dataset_categories("netflix")
        cats.pop()
        assert len(dataset_categories("netflix")) == 9
