"""Video popularity: power law with exponential cutoff.

Section 2.5 (citing Cha et al.): "most of the watch time concentrates in a
few popular videos, while there is a long tail of rarely watched videos."
The standard fit is a Zipf-like power law with an exponential cutoff,

    views(rank) ~ rank^(-alpha) * exp(-rank / cutoff)

This model drives the sharing-service simulation's decision of which
videos earn a high-effort Popular re-transcode, and how egress costs
distribute over the corpus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PopularityModel"]


@dataclass(frozen=True)
class PopularityModel:
    """Rank-based popularity distribution.

    Attributes:
        alpha: Power-law exponent (Cha et al. report ~0.8-1.1 for UGC).
        cutoff_rank: Exponential cutoff scale; beyond this rank interest
            decays faster than any power law.
        total_views: Total view volume to distribute.
    """

    alpha: float = 1.0
    cutoff_rank: float = 2.0e4
    total_views: float = 1.0e9

    def __post_init__(self) -> None:
        # Non-finite parameters would sail through the sign checks below
        # (inf > 0) and surface later as NaN view masses — i.e. NaN
        # arrival rates once the traffic layer samples this model.  Fail
        # at construction instead.
        for name in ("alpha", "cutoff_rank", "total_views"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.cutoff_rank <= 0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff_rank}")
        if self.total_views <= 0:
            raise ValueError(f"total views must be positive, got {self.total_views}")

    def raw_mass(self, ranks: np.ndarray) -> np.ndarray:
        """Unnormalized view mass for 1-based ranks."""
        ranks = np.asarray(ranks, dtype=np.float64)
        if np.any(ranks < 1):
            raise ValueError("ranks are 1-based")
        return ranks ** (-self.alpha) * np.exp(-ranks / self.cutoff_rank)

    def views(self, n_videos: int) -> np.ndarray:
        """Expected views per video for a corpus of ``n_videos``, by rank."""
        if n_videos <= 0:
            raise ValueError(f"need a positive corpus size, got {n_videos}")
        mass = self.raw_mass(np.arange(1, n_videos + 1))
        return self.total_views * mass / mass.sum()

    def sample_ranks(
        self, n_samples: int, n_videos: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw watch events (1-based video ranks) from the distribution."""
        if n_samples < 0:
            raise ValueError(f"n_samples must be non-negative, got {n_samples}")
        if n_videos <= 0:
            raise ValueError(
                f"cannot sample from an empty catalog, got {n_videos} videos"
            )
        views = self.views(n_videos)
        probs = views / views.sum()
        return rng.choice(np.arange(1, n_videos + 1), size=n_samples, p=probs)
