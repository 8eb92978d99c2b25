"""Video selection pipeline: representativeness and coverage mechanics."""

import numpy as np
import pytest

from repro.corpus.category import VideoCategory, feature_matrix
from repro.corpus.kmeans import weighted_kmeans
from repro.corpus.synthetic import SyntheticCorpus
from repro.core.selection import pick_chunk, select_categories, select_suite_videos

#: (significant categories, digest of the k picks' fields, types and
#: weight bytes) per (k, seed), captured from the per-cluster scan below.
SELECTION_PINS = {
    (4, 7): (15674, "0e24532aa6fc821a7d32c05be19e28ebbd34f3a3434955aadefefdbbfb4eb7a1"),
    (15, 2017): (15828, "8b81c8d959cd648006d529dc72ee51ad2680f3690d35cb6dbd8fbcc10cc9a3ea"),
}


def _cluster_scan(cats, assignments, k):
    """Oracle: the per-cluster scan for the mode that select_categories ran."""
    chosen = []
    taken = set()
    for cluster in range(k):
        members = [i for i in range(len(cats)) if assignments[i] == cluster]
        if not members:
            continue
        members.sort(key=lambda i: -cats[i].weight)
        for i in members:
            if i not in taken:
                taken.add(i)
                chosen.append(cats[i])
                break
    chosen.sort(key=lambda c: (c.kpixels, c.entropy))
    return chosen


@pytest.fixture(scope="module")
def small_corpus():
    return SyntheticCorpus(seed=5, n_uploads=4000)


class TestSelectCategories:
    def test_returns_k_distinct(self, small_corpus):
        chosen = select_categories(small_corpus.categories, k=8, seed=1)
        assert len(chosen) == 8
        assert len({c.key() for c in chosen}) == 8

    def test_sorted_by_resolution_then_entropy(self, small_corpus):
        chosen = select_categories(small_corpus.categories, k=8, seed=1)
        keys = [(c.kpixels, c.entropy) for c in chosen]
        assert keys == sorted(keys)

    def test_heavy_category_always_selected(self):
        cats = [
            VideoCategory(854, 480, 30, e, weight=1.0)
            for e in (0.5, 1.0, 2.0, 8.0, 16.0)
        ]
        cats.append(VideoCategory(1920, 1080, 30, 4.0, weight=1e9))
        chosen = select_categories(cats, k=2, seed=0)
        assert any(c.kpixels == 2074 for c in chosen)

    def test_covers_entropy_extremes(self, small_corpus):
        chosen = select_categories(
            small_corpus.significant_categories(), k=15, seed=0
        )
        entropies = [c.entropy for c in chosen]
        assert max(entropies) / min(entropies) > 20

    def test_validation(self, small_corpus):
        with pytest.raises(ValueError):
            select_categories(small_corpus.categories, k=0)
        with pytest.raises(ValueError):
            select_categories(small_corpus.categories[:3], k=5)

    def test_empty_cluster_raises_instead_of_a_short_suite(self):
        # The first two share a feature point (922 kpixels, 30 fps, 5.0),
        # so k=3 leaves one cluster empty.
        cats = [
            VideoCategory(1280, 720, 30, 5.0, weight=10),
            VideoCategory(1440, 640, 30, 5.0, weight=10),
            VideoCategory(640, 360, 30, 1.0, weight=1),
        ]
        with pytest.raises(ValueError, match="k=3 clusters but only 2"):
            select_categories(cats, k=3)

    @pytest.mark.parametrize("k, seed", sorted(SELECTION_PINS))
    def test_pinned(self, k, seed, categories_digest):
        significant = SyntheticCorpus(seed=seed).significant_categories()
        chosen = select_categories(significant, k=k, seed=seed)
        assert len(chosen) == k
        assert (len(significant), categories_digest(chosen)) == SELECTION_PINS[(k, seed)]

    def test_mode_pick_matches_cluster_scan(self):
        """Random category sets with tied and zero weights and shared
        feature points: the same picks, or an error where the scan
        returned fewer than k."""
        rng = np.random.default_rng(5)
        full = short = 0
        for case in range(60):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, n + 1))
            cats = [
                VideoCategory(
                    int(rng.choice((640, 1280, 1920))),
                    int(rng.choice((360, 720))),
                    int(rng.choice((24, 30))),
                    float(rng.choice((0.5, 2.0, 8.0))),
                    weight=float(rng.choice((0.0, 1.0, 2.0, 5.0))),
                )
                for _ in range(n)
            ]
            if sum(c.weight for c in cats) == 0:
                continue
            weights = np.array([c.weight for c in cats])
            result = weighted_kmeans(feature_matrix(cats), weights, k=k, seed=case)
            expected = _cluster_scan(cats, result.assignments, k)
            if len(expected) < k:
                short += 1
                with pytest.raises(ValueError, match=f"only {len(expected)} are"):
                    select_categories(cats, k=k, seed=case)
            else:
                full += 1
                chosen = select_categories(cats, k=k, seed=case)
                assert [id(c) for c in chosen] == [id(c) for c in expected], case
        assert full >= 10 and short >= 10


class TestPickChunk:
    def test_short_clip_unchanged(self, natural_video):
        assert pick_chunk(natural_video, chunk_seconds=10.0) is natural_video

    def test_picks_representative_chunk(self):
        from repro.video.synthesis import synthesize
        from repro.video.video import Video

        calm = synthesize("slideshow", 48, 32, 6, 6.0, seed=1)
        busy = synthesize("sports", 48, 32, 6, 6.0, seed=1)
        mixed = Video(calm.frames + busy.frames + calm.frames, fps=6.0)
        chunk = pick_chunk(mixed, chunk_seconds=1.0)
        assert len(chunk) == 6


class TestSelectSuiteVideos:
    def test_full_pipeline(self, small_corpus):
        selected = select_suite_videos(small_corpus, k=4, profile="tiny", seed=3)
        assert len(selected) == 4
        names = [s.name for s in selected]
        assert len(set(names)) == 4  # deduplicated
        for entry in selected:
            assert entry.measured_entropy > 0
            assert entry.video.nominal_resolution == (
                entry.category.width,
                entry.category.height,
            )

    def test_deterministic(self, small_corpus):
        a = select_suite_videos(small_corpus, k=3, profile="tiny", seed=3)
        b = select_suite_videos(small_corpus, k=3, profile="tiny", seed=3)
        assert [s.name for s in a] == [s.name for s in b]
        assert all(x.video == y.video for x, y in zip(a, b))
