"""Algorithmic video selection: the paper's Section 4.1 pipeline.

1. Accumulate transcoding time per (resolution, framerate, entropy)
   category from the corpus logs.
2. Linearize resolution and entropy with base-2 logs, normalize each
   dimension to [-1, 1], and run weighted k-means (weights = transcoding
   time) to find ``k`` centroids.
3. Take the highest-weight category of each cluster -- the mode -- as the
   cluster representative (representativeness), while every category
   belongs to some cluster (coverage).
4. Materialize one video per selected category and cut it to the
   5-second-equivalent chunk whose bitrate best matches the whole clip.
5. Re-measure each selected clip's entropy the way the paper defines it
   (CRF-18 bits/pixel/second) for Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.corpus.category import VideoCategory, feature_matrix
from repro.corpus.kmeans import weighted_kmeans
from repro.corpus.synthetic import (
    PROFILES,
    RenderProfile,
    SyntheticCorpus,
    video_for_category,
)
from repro.video.entropy import measure_entropy
from repro.video.video import Video

__all__ = ["SelectedVideo", "select_categories", "select_suite_videos", "pick_chunk"]


@dataclass
class SelectedVideo:
    """One suite entry: the category it represents plus the actual clip.

    ``measured_entropy`` is re-measured on the rendered clip (CRF-18
    bits/pixel/second), which is what Table 2 reports; it need not equal
    the category's nominal entropy exactly.
    """

    category: VideoCategory
    video: Video
    measured_entropy: float
    cluster_weight: float

    @property
    def name(self) -> str:
        return self.video.name


def select_categories(
    categories: Sequence[VideoCategory],
    k: int = 15,
    seed: int = 0,
) -> List[VideoCategory]:
    """Steps 1-3: weighted k-means and mode-of-cluster representatives.

    Returns ``k`` distinct categories, one per cluster: the heaviest
    member, the lowest-indexed one on a tie.  They come ordered by
    resolution then entropy (the Table 2 presentation order), clusters
    in index order on a tie.  The pick is exact under re-implementation:
    ``tests/test_selection.py`` pins it bit for bit and checks it against
    the former per-cluster loop.

    Raises:
        ValueError: ``k < 1``, fewer than ``k`` categories, or a k-means
            result with an empty cluster (identical feature points leave
            a centroid with no members), which would short the suite.
    """
    cats = list(categories)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(cats) < k:
        raise ValueError(f"need at least {k} categories, got {len(cats)}")
    points = feature_matrix(cats)
    weights = np.array([c.weight for c in cats])
    result = weighted_kmeans(points, weights, k=k, seed=seed)

    filled = int(np.count_nonzero(np.bincount(result.assignments, minlength=k)))
    if filled < k:
        raise ValueError(
            f"k={k} clusters but only {filled} are non-empty, so the "
            f"suite would have {filled} videos, not {k}"
        )
    # Cluster-major, heaviest first; lexsort is stable, so the first
    # member of each cluster run is its lowest-indexed heaviest category.
    order = np.lexsort((-weights, result.assignments))
    clusters = result.assignments[order]
    heads = order[np.flatnonzero(np.diff(clusters, prepend=-1))]
    chosen = [cats[i] for i in heads.tolist()]
    chosen.sort(key=lambda c: (c.kpixels, c.entropy))
    return chosen


def pick_chunk(video: Video, chunk_seconds: float = 5.0) -> Video:
    """Step 4: the chunk whose bitrate best matches the whole video.

    The paper splits originals into non-overlapping 5-second chunks and
    keeps the one with the most representative bitrate; we use per-chunk
    CRF-18 entropy as the bitrate proxy.  Clips shorter than one chunk are
    returned unchanged.
    """
    chunks = video.chunk(chunk_seconds)
    if len(chunks) <= 1:
        return video
    entropies = [measure_entropy(c) for c in chunks]
    target = float(np.mean(entropies))
    best = int(np.argmin([abs(e - target) for e in entropies]))
    return chunks[best]


def select_suite_videos(
    corpus: SyntheticCorpus,
    k: int = 15,
    profile: "RenderProfile | str" = "fast",
    seed: int = 0,
) -> List[SelectedVideo]:
    """The full pipeline: categories -> clips -> measured entropies."""
    if isinstance(profile, str):
        profile = PROFILES[profile]
    categories = select_categories(corpus.significant_categories(), k=k, seed=seed)
    selected: List[SelectedVideo] = []
    used_names = set()
    for i, category in enumerate(categories):
        video = video_for_category(category, profile=profile, seed=seed + i)
        video = pick_chunk(video)
        name = video.name
        suffix = 2
        while name in used_names:
            name = f"{video.name}{suffix}"
            suffix += 1
        used_names.add(name)
        video = video.with_name(name)
        selected.append(
            SelectedVideo(
                category=category,
                video=video,
                measured_entropy=measure_entropy(video),
                cluster_weight=category.weight,
            )
        )
    return selected
