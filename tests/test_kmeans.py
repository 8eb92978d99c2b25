"""Weighted k-means: convergence, weighting semantics, determinism."""

import numpy as np
import pytest

from repro.corpus.kmeans import KMeansResult, _lloyd, _plusplus_seed, weighted_kmeans


def _three_clusters(rng, n=60):
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    points = np.concatenate(
        [center + rng.normal(0, 0.5, size=(n // 3, 2)) for center in centers]
    )
    return points, centers


def _mask_loop_lloyd(points, weights, centroids, max_iter, tol):
    """Oracle: the Lloyd loop that copied each cluster out with a mask."""
    k = centroids.shape[0]
    for iteration in range(1, max_iter + 1):
        dists = np.sum(
            (points[:, None, :] - centroids[None, :, :]) ** 2, axis=2
        )
        assignments = np.argmin(dists, axis=1)
        new_centroids = centroids.copy()
        for c in range(k):
            mask = assignments == c
            mass = weights[mask].sum()
            if mass > 0:
                new_centroids[c] = np.average(
                    points[mask], axis=0, weights=weights[mask]
                )
            else:
                worst = np.argmax(weights * dists[np.arange(len(points)), assignments])
                new_centroids[c] = points[worst]
        shift = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        if shift < tol:
            break
    dists = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    assignments = np.argmin(dists, axis=1)
    inertia = float(
        np.sum(weights * dists[np.arange(len(points)), assignments])
    )
    return centroids, assignments, inertia, iteration


class TestClustering:
    def test_recovers_separated_clusters(self, rng):
        points, centers = _three_clusters(rng)
        result = weighted_kmeans(points, np.ones(len(points)), k=3, seed=1)
        assert isinstance(result, KMeansResult)
        found = sorted(result.centroids.tolist())
        expected = sorted(centers.tolist())
        for f, e in zip(found, expected):
            assert np.allclose(f, e, atol=0.5)

    def test_assignments_match_nearest_centroid(self, rng):
        points, _ = _three_clusters(rng)
        result = weighted_kmeans(points, np.ones(len(points)), k=3, seed=1)
        dists = np.linalg.norm(
            points[:, None, :] - result.centroids[None], axis=2
        )
        assert np.array_equal(result.assignments, np.argmin(dists, axis=1))

    def test_deterministic(self, rng):
        points, _ = _three_clusters(rng)
        weights = np.ones(len(points))
        a = weighted_kmeans(points, weights, k=3, seed=42)
        b = weighted_kmeans(points, weights, k=3, seed=42)
        assert np.array_equal(a.assignments, b.assignments)

    def test_k_equals_n(self, rng):
        points = rng.normal(size=(5, 2))
        result = weighted_kmeans(points, np.ones(5), k=5, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_k_one_is_weighted_mean(self):
        points = np.array([[0.0], [10.0]])
        weights = np.array([3.0, 1.0])
        result = weighted_kmeans(points, weights, k=1, seed=0)
        assert result.centroids[0, 0] == pytest.approx(2.5)


class TestWeighting:
    def test_heavy_points_pull_centroids(self):
        points = np.array([[0.0], [1.0], [9.0], [10.0]])
        light = weighted_kmeans(points, np.array([1, 1, 1, 1.0]), k=1, seed=0)
        heavy = weighted_kmeans(points, np.array([100, 100, 1, 1.0]), k=1, seed=0)
        assert heavy.centroids[0, 0] < light.centroids[0, 0]

    def test_zero_weight_points_still_assigned(self, rng):
        points, _ = _three_clusters(rng)
        weights = np.ones(len(points))
        weights[0] = 0.0
        result = weighted_kmeans(points, weights, k=3, seed=1)
        assert result.assignments.shape == (len(points),)


class TestValidation:
    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            weighted_kmeans(np.zeros(5), np.ones(5), k=2)
        with pytest.raises(ValueError):
            weighted_kmeans(np.zeros((5, 2)), np.ones(4), k=2)

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            weighted_kmeans(np.zeros((5, 2)), -np.ones(5), k=2)
        with pytest.raises(ValueError):
            weighted_kmeans(np.zeros((5, 2)), np.zeros(5), k=2)

    def test_bad_k(self):
        points = np.zeros((5, 2))
        with pytest.raises(ValueError):
            weighted_kmeans(points, np.ones(5), k=0)
        with pytest.raises(ValueError):
            weighted_kmeans(points, np.ones(5), k=6)


class TestLloydOracle:
    def test_matches_mask_loop(self):
        """300 random weighted point sets: zero weights, duplicate points,
        k up to n, up to 7 dimensions (the corpus features have 3)."""
        rng = np.random.default_rng(2017)
        restarts = 0
        for case in range(300):
            n = int(rng.integers(1, 40))
            d = int(rng.integers(1, 8))
            k = int(rng.integers(1, n + 1))
            points = rng.normal(size=(n, d)) * 10.0 ** int(rng.integers(-3, 4))
            dup = rng.random(n) < 0.3
            points[dup] = points[rng.integers(0, n, size=int(dup.sum()))]
            weights = rng.choice((1.0, 2.5, 1e3), size=n) * rng.random(n)
            weights[rng.random(n) < 0.25] = 0.0
            weights[0] += 1.0
            centroids = _plusplus_seed(points, weights, k, rng)
            max_iter = int(rng.choice((2, 30)))
            first = np.argmin(
                np.sum((points[:, None] - centroids[None]) ** 2, axis=2), axis=1
            )
            restarts += np.any(np.bincount(first, weights, minlength=k) <= 0)
            got = _lloyd(points, weights, centroids, max_iter, 1e-6)
            want = _mask_loop_lloyd(points, weights, centroids, max_iter, 1e-6)
            assert np.array_equal(got[0], want[0]), case
            assert np.array_equal(got[1], want[1]), case
            assert got[2] == want[2] and got[3] == want[3], case
        # The empty / massless cluster restart ran in many of the cases.
        assert restarts >= 30
