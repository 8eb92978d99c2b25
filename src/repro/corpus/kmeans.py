"""Weighted k-means clustering, implemented from scratch.

The paper applies weighted k-means to the normalized category feature
space, with weights equal to the transcoding time spent on each category,
then takes the highest-weight member (the mode) of each cluster as its
representative.  This module provides exactly that primitive: Lloyd's
algorithm with weighted centroid updates, k-means++ seeding (weighted),
and deterministic restarts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["KMeansResult", "weighted_kmeans"]


@dataclass
class KMeansResult:
    """Outcome of a weighted k-means run.

    Attributes:
        centroids: ``(k, d)`` cluster centers.
        assignments: ``(n,)`` cluster index per point.
        inertia: Weighted sum of squared distances to assigned centroids.
        iterations: Lloyd iterations until convergence.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    iterations: int


def _plusplus_seed(
    points: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Weighted k-means++ seeding: spread initial centroids apart."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    probs = weights / weights.sum()
    first = rng.choice(n, p=probs)
    centroids[0] = points[first]
    closest_sq = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        scores = weights * closest_sq
        total = scores.sum()
        if total <= 0:
            # All mass sits on existing centroids; fill with weighted draws.
            idx = rng.choice(n, p=probs)
        else:
            idx = rng.choice(n, p=scores / total)
        centroids[i] = points[idx]
        dist_sq = np.sum((points - centroids[i]) ** 2, axis=1)
        closest_sq = np.minimum(closest_sq, dist_sq)
    return centroids


def _sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``(n, k)`` squared distances, summed one dimension at a time.

    Adding the dimensions in order is the order ``np.sum(..., axis=-1)``
    uses below 8 dimensions (the corpus features have 3), so the matrix
    has the bits of the ``(n, k, d)`` reduction without building it.
    """
    dists = np.subtract.outer(points[:, 0], centroids[:, 0])
    dists *= dists
    for j in range(1, points.shape[1]):
        diff = np.subtract.outer(points[:, j], centroids[:, j])
        diff *= diff
        dists += diff
    return dists


def _lloyd(
    points: np.ndarray,
    weights: np.ndarray,
    centroids: np.ndarray,
    max_iter: int,
    tol: float,
) -> Tuple[np.ndarray, np.ndarray, float, int]:
    """Lloyd iterations: (centroids, assignments, inertia, iterations).

    Each cluster's members are read as one contiguous slice of a stable
    argsort of the assignments: the members in index order, exactly the
    rows a boolean mask would copy out, so the weighted means are the
    same bits at one sort per iteration instead of k masks over n.
    """
    k = centroids.shape[0]
    rows = np.arange(points.shape[0])
    for iteration in range(1, max_iter + 1):
        # Assignment step.
        dists = _sq_distances(points, centroids)
        assignments = np.argmin(dists, axis=1)
        order = np.argsort(assignments, kind="stable")
        members = points[order]
        member_weights = weights[order]
        ends = np.cumsum(np.bincount(assignments, minlength=k))
        # Update step (weighted means); empty clusters restart on the
        # heaviest poorly-served point.
        new_centroids = centroids.copy()
        start = 0
        for c, end in enumerate(ends.tolist()):
            w = member_weights[start:end]
            if w.sum() > 0:
                new_centroids[c] = np.average(
                    members[start:end], axis=0, weights=w
                )
            else:
                worst = np.argmax(weights * dists[rows, assignments])
                new_centroids[c] = points[worst]
            start = end
        shift = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        if shift < tol:
            break
    dists = _sq_distances(points, centroids)
    assignments = np.argmin(dists, axis=1)
    inertia = float(np.sum(weights * dists[rows, assignments]))
    return centroids, assignments, inertia, iteration


def weighted_kmeans(
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    seed: int = 0,
    restarts: int = 4,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> KMeansResult:
    """Cluster weighted points into ``k`` groups; best of ``restarts`` runs.

    Args:
        points: ``(n, d)`` feature matrix.
        weights: ``(n,)`` non-negative weights (transcoding time).
        k: Number of clusters; must satisfy ``1 <= k <= n``.
        seed: Deterministic seed.
        restarts: Independent k-means++ restarts; the lowest-inertia run
            wins.
        max_iter: Lloyd iteration cap per restart.
        tol: Centroid-shift convergence tolerance.
    """
    points = np.asarray(points, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {points.shape}")
    if weights.shape != (points.shape[0],):
        raise ValueError(
            f"weights must be ({points.shape[0]},), got {weights.shape}"
        )
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if weights.sum() <= 0:
        raise ValueError("total weight must be positive")
    if not 1 <= k <= points.shape[0]:
        raise ValueError(
            f"k must be in [1, {points.shape[0]}], got {k}"
        )
    rng = np.random.default_rng(seed)
    best: Optional[KMeansResult] = None
    for _ in range(max(1, restarts)):
        centroids = _plusplus_seed(points, weights, k, rng)
        centroids, assignments, inertia, iters = _lloyd(
            points, weights, centroids, max_iter, tol
        )
        if best is None or inertia < best.inertia:
            best = KMeansResult(centroids, assignments, inertia, iters)
    return best
