"""The synthetic commercial corpus and its stand-in video renderer.

Replaces the paper's six months of YouTube transcoding logs with a
deterministic generative model whose joint (resolution, framerate,
entropy) distribution matches the published characterization:

* a standard resolution ladder plus odd and vertical variants (40+
  distinct resolutions, 480p-1080p heavy, 4K light);
* the top framerates (24/25/30 heavy; 48/50/60 for high-framerate
  content; low rates for slideshows);
* entropy as a mixture over content classes spanning four decades --
  slideshows below 0.1 bit/px/s up to high-motion sports above 10;
* category weight = total transcoding time ~ pixel rate x upload volume.

``video_for_category`` renders a reduced-scale stand-in clip for any
category: the content class is chosen by the category's entropy band, the
clip is synthesized at ``1/downscale`` linear scale, and the nominal
resolution is recorded on the video so resolution-dependent models (the
hardware pipeline, live realtime targets) see the category's true
geometry.  See DESIGN.md for why this preserves the paper's trends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.corpus.category import STANDARD_RESOLUTIONS, VideoCategory
from repro.video.synthesis import synthesize
from repro.video.video import Video

__all__ = ["RenderProfile", "PROFILES", "SyntheticCorpus", "video_for_category"]


@dataclass(frozen=True)
class RenderProfile:
    """How big the stand-in clips are.

    Attributes:
        name: Profile label.
        downscale: Linear scale divisor applied to the nominal resolution
            (uniform across the suite so relative resolutions survive).
        max_frames: Cap on clip length in frames (clips target ~1 second).
    """

    name: str
    downscale: int
    max_frames: int

    def __post_init__(self) -> None:
        if self.downscale < 1:
            raise ValueError(f"downscale must be >= 1, got {self.downscale}")
        if self.max_frames < 2:
            raise ValueError(f"max_frames must be >= 2, got {self.max_frames}")

    def render_geometry(self, width: int, height: int) -> Tuple[int, int]:
        """Stand-in (width, height): scaled, even, at least 32x32."""
        w = max(32, int(round(width / self.downscale / 2.0)) * 2)
        h = max(32, int(round(height / self.downscale / 2.0)) * 2)
        return w, h

    def render_frames(self, framerate: float) -> int:
        """Stand-in frame count: ~1 second, capped."""
        return max(6, min(self.max_frames, int(round(framerate))))


#: Built-in rendering profiles, from CI-fast to paper-faithful.
PROFILES: Dict[str, RenderProfile] = {
    "tiny": RenderProfile("tiny", downscale=18, max_frames=8),
    "fast": RenderProfile("fast", downscale=12, max_frames=10),
    "bench": RenderProfile("bench", downscale=8, max_frames=16),
    "full": RenderProfile("full", downscale=4, max_frames=30),
}

# Entropy bands (bit/px/s) -> content class.  Bands overlap the measured
# entropy each class actually produces; the selection pipeline re-measures.
_ENTROPY_BANDS: Tuple[Tuple[float, str], ...] = (
    (1.0, "slideshow"),
    (5.0, "screencast"),
    (12.0, "animation"),
    (25.0, "natural"),
    (48.0, "gaming"),
    (math.inf, "sports"),
)

#: Table 2-flavoured name pools per content class.
_NAME_POOL: Dict[str, Tuple[str, ...]] = {
    "slideshow": ("presentation", "slides", "lecture", "deck"),
    "screencast": ("desktop", "tutorial", "coding", "terminal"),
    "animation": ("bike", "funny", "cartoon", "toon"),
    "natural": ("girl", "house", "landscape", "chicken", "interview"),
    "gaming": ("game1", "game2", "game3", "speedrun"),
    "sports": ("cat", "holi", "cricket", "hall", "parade"),
}


def content_class_for_entropy(entropy: float) -> str:
    """The content class whose band contains this entropy."""
    if entropy <= 0:
        raise ValueError(f"entropy must be positive, got {entropy}")
    for upper, name in _ENTROPY_BANDS:
        if entropy < upper:
            return name
    raise AssertionError("unreachable: bands end at +inf")


def video_for_category(
    category: VideoCategory,
    profile: "RenderProfile | str" = "fast",
    seed: int = 0,
    name: Optional[str] = None,
) -> Video:
    """Render a stand-in clip representing ``category``.

    The clip is synthesized at reduced scale with content whose measured
    entropy lands in the category's band; its ``nominal_resolution`` is
    the category's true geometry.
    """
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise ValueError(
                f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}"
            ) from None
    content = content_class_for_entropy(category.entropy)
    width, height = profile.render_geometry(category.width, category.height)
    frames = profile.render_frames(category.framerate)
    params = _content_params(content, category.entropy)
    if name is None:
        pool = _NAME_POOL[content]
        name = pool[seed % len(pool)]
    video = synthesize(
        content, width, height, frames, float(category.framerate),
        seed=seed, name=name, **params,
    )
    return video.with_nominal_resolution(category.width, category.height)


def _content_params(content: str, entropy: float) -> Dict[str, float]:
    """Scale generator knobs so measured entropy tracks the target."""
    if content == "natural":
        t = min(1.0, max(0.0, (entropy - 12.0) / 13.0))
        return {"detail": 0.4 + 0.5 * t, "noise": 0.4 + 1.0 * t, "pan": 0.5 + t}
    if content == "sports":
        t = min(1.0, max(0.0, (entropy - 48.0) / 50.0))
        return {"noise": 1.4 + 1.4 * t, "speed": 3.0 + 3.0 * t}
    if content == "gaming":
        t = min(1.0, max(0.0, (entropy - 25.0) / 23.0))
        return {"speed": 2.0 + 2.0 * t, "noise": 0.6 + 1.2 * t}
    if content == "screencast":
        t = min(1.0, max(0.0, (entropy - 1.0) / 4.0))
        return {"activity": 0.04 + 0.3 * t}
    if content == "animation":
        t = min(1.0, max(0.0, (entropy - 5.0) / 7.0))
        return {"speed": 0.4 + 1.2 * t, "n_shapes": int(3 + 5 * t)}
    return {}


def _group_uploads(
    resolutions: Sequence[Tuple[int, int]],
    res_idx: np.ndarray,
    fps: np.ndarray,
    entropy: np.ndarray,
    minutes: np.ndarray,
) -> List[VideoCategory]:
    """One category per distinct (width, height, fps, entropy@0.1) key.

    A category's weight is the summed transcode time of its uploads, cost
    ~ pixels x frames ~ pixel rate x duration.  Categories come out in key
    order.  ``np.bincount`` adds each group's costs in upload order,
    starting from 0.0, so every weight has the bits of a running per-key
    sum over the uploads.
    """
    width, height = np.array(resolutions, dtype=np.int64)[res_idx].T
    # Python's round: np.round scales by ten first and can land one ulp off.
    entropy = np.maximum(0.1, [round(e, 1) for e in entropy.tolist()])
    cost = width * height * fps * minutes
    order = np.lexsort((entropy, fps, height, width))
    keys = (width[order], height[order], fps[order], entropy[order])
    first = np.zeros(len(order), dtype=bool)
    first[0] = True
    for column in keys:
        first[1:] |= column[1:] != column[:-1]
    group = np.empty(len(order), dtype=np.int64)
    group[order] = np.cumsum(first) - 1
    weights = np.bincount(group, weights=cost)
    columns = (column[first].tolist() for column in keys)
    return [
        VideoCategory(w, h, f, e, weight=weight)
        for w, h, f, e, weight in zip(*columns, weights)
    ]


class SyntheticCorpus:
    """A weighted category population standing in for the YouTube logs.

    Each upload draws a resolution, a framerate, an entropy and a
    duration; uploads sharing a (width, height, fps, entropy rounded to
    0.1) key form one category, sorted by that key, whose weight is their
    summed transcode time.  The grouping is array passes whose output is
    pinned bit for bit, field types included, by ``tests/test_corpus.py``.

    Args:
        seed: Deterministic seed.
        n_uploads: Simulated uploads to draw; more uploads produce more
            distinct categories (the paper's logs yield ~3500 categories
            with significant weight; the default lands in that regime).
    """

    # Upload mix over the standard ladder (plus odd/vertical variants).
    _RES_WEIGHTS = (0.02, 0.05, 0.14, 0.30, 0.28, 0.17, 0.004, 0.006)
    _FPS_CHOICES = (6, 12, 15, 24, 25, 30, 48, 50, 60)
    _FPS_WEIGHTS = (0.02, 0.04, 0.06, 0.17, 0.12, 0.38, 0.04, 0.05, 0.12)
    # Entropy mixture: (log-mean, log-sigma, share) per content population.
    _ENTROPY_MIX = (
        (math.log(0.3), 0.6, 0.10),    # slideshows / stills
        (math.log(2.5), 0.45, 0.10),   # screen capture
        (math.log(8.0), 0.35, 0.18),   # animation
        (math.log(16.0), 0.30, 0.27),  # natural
        (math.log(34.0), 0.22, 0.20),  # gaming
        (math.log(62.0), 0.30, 0.15),  # sports / high motion
    )

    def __init__(self, seed: int = 2017, n_uploads: int = 60_000) -> None:
        if n_uploads <= 0:
            raise ValueError(f"need a positive upload count, got {n_uploads}")
        self.seed = seed
        rng = np.random.default_rng(seed)
        resolutions = self._resolution_pool(rng)
        res_probs = self._resolution_probs(resolutions)

        res_idx = rng.choice(len(resolutions), size=n_uploads, p=res_probs)
        fps = rng.choice(
            self._FPS_CHOICES, size=n_uploads,
            p=np.array(self._FPS_WEIGHTS) / sum(self._FPS_WEIGHTS),
        )
        entropy = self._sample_entropy(rng, n_uploads)

        # Duration of each upload (minutes), log-normal.
        minutes = np.exp(rng.normal(1.0, 0.9, size=n_uploads))
        self.categories: List[VideoCategory] = _group_uploads(
            resolutions, res_idx, fps, entropy, minutes
        )

    def _resolution_pool(self, rng: np.random.Generator) -> List[Tuple[int, int]]:
        """The standard ladder plus vertical and odd variants (40+ total)."""
        pool = list(STANDARD_RESOLUTIONS)
        # Vertical (phone) uploads of the mid ladder.
        pool += [(h, w) for (w, h) in STANDARD_RESOLUTIONS[2:6]]
        # Odd encodes: anamorphic / cropped variants around the ladder.
        for w, h in STANDARD_RESOLUTIONS[2:]:
            for scale in (0.9, 1.05):
                pool.append(
                    (int(w * scale) // 2 * 2, int(h / scale) // 2 * 2)
                )
        # Legacy and container-specific formats.
        pool += [
            (426, 240), (256, 144), (480, 360), (640, 480), (960, 540),
            (1152, 648), (768, 432), (600, 480), (640, 352), (320, 180),
            (480, 272), (720, 576), (720, 480), (1440, 1080), (800, 450),
        ]
        seen = set()
        unique: List[Tuple[int, int]] = []
        for res in pool:
            if res not in seen:
                seen.add(res)
                unique.append(res)
        return unique

    def _resolution_probs(self, resolutions: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Upload probability per resolution: ladder-weighted, variants light."""
        ladder = {res: w for res, w in zip(STANDARD_RESOLUTIONS, self._RES_WEIGHTS)}
        probs = []
        for w, h in resolutions:
            if (w, h) in ladder:
                probs.append(ladder[(w, h)])
            else:
                # Variants get a share proportional to the nearest ladder rung.
                pixels = w * h
                nearest = min(
                    STANDARD_RESOLUTIONS,
                    key=lambda r: abs(r[0] * r[1] - pixels),
                )
                probs.append(0.08 * ladder[nearest])
        arr = np.array(probs)
        return arr / arr.sum()

    def _sample_entropy(self, rng: np.random.Generator, n: int) -> np.ndarray:
        shares = np.array([m[2] for m in self._ENTROPY_MIX])
        comp = rng.choice(len(self._ENTROPY_MIX), size=n, p=shares / shares.sum())
        mus = np.array([m[0] for m in self._ENTROPY_MIX])[comp]
        sigmas = np.array([m[1] for m in self._ENTROPY_MIX])[comp]
        return np.exp(rng.normal(mus, sigmas))

    # -- views ------------------------------------------------------------

    @property
    def total_weight(self) -> float:
        """Total transcoding time over all categories."""
        return float(sum(c.weight for c in self.categories))

    def significant_categories(self, min_share: float = 1e-5) -> List[VideoCategory]:
        """Categories above a minimum share of total transcode time."""
        floor = self.total_weight * min_share
        return [c for c in self.categories if c.weight >= floor]

    def __len__(self) -> int:
        return len(self.categories)
