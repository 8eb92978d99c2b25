"""Closed-form training for the transcode-time predictor.

The whole procedure is pure in ``(corpus, seed)``:

1. :func:`training_corpus` synthesizes a fixed slate of clips -- every
   content class the traffic catalog rotates through
   (``CONTENT_CLASSES``), at the traffic stand-in geometry plus one
   larger geometry so the resolution terms have signal;
2. ground truth is labeled by running each ``(spec, rate mode)``
   operating point through the real backends -- the label is the
   deterministic cycle-modeled ``seconds`` (hardware: the pipeline
   model), never wall clock;
3. coefficients come from the ridge-regularized normal equations,
   solved by Gaussian elimination with partial pivoting in plain Python
   floats, in fixed order.

No numpy reductions (pairwise-summation split points vary across
versions) and no transcendentals touch the fit, so re-running
:func:`train_predictor` with the same arguments regenerates the
committed ``coefficients.json`` byte for byte on any platform.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.encoders.base import RateSpec
from repro.encoders.registry import HARDWARE_BACKENDS, get_transcoder
from repro.predict.features import JobFeatures, extract_features
from repro.predict.model import (
    LinearModel,
    TranscodeTimePredictor,
    rate_mode,
)
from repro.video.synthesis import CONTENT_CLASSES, synthesize
from repro.video.video import Video

__all__ = [
    "DEFAULT_RIDGE",
    "TRAIN_SPECS",
    "train_predictor",
    "training_corpus",
]

#: The farm pool's operating points (the union of the delivery and
#: Popular degradation ladders) -- every spec a traffic job can run on,
#: and therefore every spec the scheduler may need a time estimate for.
TRAIN_SPECS = (
    "qsv",
    "x264:medium",
    "x264:ultrafast",
    "x264:veryfast",
    "x264:veryslow",
)

#: Every content class, in the order the traffic catalog rotates
#: through them.
_CONTENTS = tuple(CONTENT_CLASSES)

#: Corpus geometries: ``(width, height, frames, fps)``.  The first is
#: the traffic simulator's stand-in clip (a test pins the two together:
#: importing the traffic layer here would be a package cycle); the
#: second is larger in every dimension so the pixel/frame-count features
#: are not collinear with the bias.
_GEOMETRIES = (
    (48, 32, 6, 12.0),
    (64, 48, 9, 18.0),
)

#: Default ridge strength.  Tiny relative to the diagonal of X'X, just
#: enough to keep the solve well-posed when two features nearly align
#: over a small corpus.
DEFAULT_RIDGE = 1e-6

#: Bitrate operating point for the abr labels, mirroring
#: ``TranscodeFarm.job_rate`` (bits per pixel-second, with a floor; a
#: test pins the two together).
_BITS_PER_PIXEL_SECOND = 0.15
_MIN_BITRATE_BPS = 1000.0


def training_corpus(seed: int = 0) -> List[Video]:
    """The fixed training slate: every content class at two geometries."""
    corpus: List[Video] = []
    index = 0
    for width, height, frames, fps in _GEOMETRIES:
        for content in _CONTENTS:
            index += 1
            corpus.append(
                synthesize(
                    content,
                    width,
                    height,
                    frames,
                    fps,
                    seed=seed * 1009 + index,
                    name=f"train-{index:02d}-{content}",
                )
            )
    return corpus


def _abr_target(video: Video) -> float:
    return max(
        _BITS_PER_PIXEL_SECOND * video.frame_pixels * video.fps,
        _MIN_BITRATE_BPS,
    )


def _rates_for(spec: str, video: Video) -> List[RateSpec]:
    """The rate specs this backend is labeled under (its real modes)."""
    rates = [
        RateSpec.for_crf(18),
        RateSpec.for_bitrate(_abr_target(video)),
    ]
    if spec.partition(":")[0] not in HARDWARE_BACKENDS:
        rates.append(RateSpec.for_bitrate(_abr_target(video), two_pass=True))
    return rates


def _solve_ridge(
    rows: Sequence[Tuple[float, ...]],
    targets: Sequence[float],
    ridge: float,
) -> Tuple[float, ...]:
    """Solve ``(X'X + ridge*I) b = X'y`` by Gaussian elimination.

    Plain nested loops over Python floats, fixed iteration order,
    partial pivoting for stability.  Deterministic down to the bit.
    """
    n = len(rows[0])
    # Normal equations, accumulated in row-major fixed order.
    xtx = [[0.0] * n for _ in range(n)]
    xty = [0.0] * n
    for row, target in zip(rows, targets):
        for i in range(n):
            xty[i] += row[i] * target
            for j in range(n):
                xtx[i][j] += row[i] * row[j]
    for i in range(n):
        xtx[i][i] += ridge
    # Augment and eliminate.
    aug = [xtx[i] + [xty[i]] for i in range(n)]
    for col in range(n):
        pivot = col
        best = abs(aug[col][col])
        for row in range(col + 1, n):
            magnitude = abs(aug[row][col])
            if magnitude > best:
                best = magnitude
                pivot = row
        if best == 0.0:
            raise ValueError(
                "singular normal equations; increase ridge or corpus size"
            )
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        for row in range(col + 1, n):
            factor = aug[row][col] / lead
            if factor == 0.0:
                continue
            for j in range(col, n + 1):
                aug[row][j] -= factor * aug[col][j]
    solution = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = aug[row][n]
        for j in range(row + 1, n):
            acc -= aug[row][j] * solution[j]
        solution[row] = acc / aug[row][row]
    return tuple(solution)


def train_predictor(
    specs: Sequence[str] = TRAIN_SPECS,
    seed: int = 0,
    ridge: float = DEFAULT_RIDGE,
    corpus: Optional[Sequence[Video]] = None,
) -> TranscodeTimePredictor:
    """Fit one linear model per ``(spec, rate mode)`` over the corpus.

    Pure in its arguments: the corpus is synthesized from ``seed``, the
    labels are the backends' deterministic modeled seconds, and the
    solve is exact-order scalar arithmetic.
    """
    videos = list(corpus) if corpus is not None else training_corpus(seed)
    features: List[JobFeatures] = [extract_features(video) for video in videos]
    models: Dict[str, LinearModel] = {}
    for spec in sorted(specs):
        backend = get_transcoder(spec)
        samples: Dict[str, Tuple[List[Tuple[float, ...]], List[float]]] = {}
        for video, feats in zip(videos, features):
            for rate in _rates_for(spec, video):
                mode = rate_mode(spec, rate)
                rows, targets = samples.setdefault(mode, ([], []))
                rows.append(feats.vector())
                targets.append(backend.transcode(video, rate).seconds)
        for mode in sorted(samples):
            rows, targets = samples[mode]
            models[f"{spec}|{mode}"] = LinearModel(
                coefficients=_solve_ridge(rows, targets, ridge)
            )
    return TranscodeTimePredictor(models=models, corpus_seed=seed, ridge=ridge)
