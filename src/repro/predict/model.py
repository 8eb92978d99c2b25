"""The transcode-time predictor: per-(spec, mode) linear models.

Following arXiv 2312.05348, predicted time is a linear function of the
job features, with one model per operating point: each ``(backend:preset,
rate mode)`` pair gets its own coefficient vector, because the relative
weight of motion search versus entropy coding versus transform work
shifts with the preset and the rate-control mode (a two-pass encode does
roughly twice the analysis work of a single-pass one, a CRF encode skips
the rate-control iteration entirely).

Everything here is scalar Python float arithmetic in fixed order -- no
numpy reductions, whose pairwise-summation split points can vary across
versions, and no libm transcendentals.  Combined with the deterministic
features and the pure training procedure, this makes the committed
``coefficients.json`` reproducible byte for byte: re-running training on
the same corpus and seed must regenerate the identical file (a test
asserts exactly that).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.encoders.base import RateSpec
from repro.encoders.registry import HARDWARE_BACKENDS
from repro.predict.features import FEATURE_NAMES, JobFeatures
from repro.record import sha256_hex, stable_json

__all__ = [
    "LinearModel",
    "MODEL_VERSION",
    "TranscodeTimePredictor",
    "coefficients_path",
    "default_predictor",
    "rate_mode",
]

#: Bump when the feature vector or the JSON schema changes shape.
MODEL_VERSION = 1

#: Predictions are clamped to this floor: a linear model extrapolated to
#: unseen content can go slightly negative, but a transcode never does.
_MIN_PREDICTION_S = 1e-9


def rate_mode(spec: str, rate: RateSpec) -> str:
    """The rate-control mode ``spec`` will actually run ``rate`` under.

    Hardware backends have no two-pass mode; the farm's adapter downgrades
    ``abr2`` requests to single-pass for them (``_adapt_rate``), so the
    predictor must price the single-pass encode that will really happen.
    """
    if rate.kind == "crf":
        return "crf"
    backend = spec.partition(":")[0]
    if rate.two_pass and backend not in HARDWARE_BACKENDS:
        return "abr2"
    return "abr1"


@dataclass(frozen=True)
class LinearModel:
    """One least-squares fit: coefficients over :data:`FEATURE_NAMES`."""

    coefficients: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) != len(FEATURE_NAMES):
            raise ValueError(
                f"expected {len(FEATURE_NAMES)} coefficients "
                f"(one per feature), got {len(self.coefficients)}"
            )

    def predict(self, features: JobFeatures) -> float:
        """Predicted transcode seconds (always positive)."""
        total = 0.0
        for coef, value in zip(self.coefficients, features.vector()):
            total += coef * value
        return total if total > _MIN_PREDICTION_S else _MIN_PREDICTION_S


@dataclass(frozen=True)
class TranscodeTimePredictor:
    """A bundle of per-(spec, mode) models plus training provenance.

    Attributes:
        models: ``"backend:preset|mode"`` -> fitted model.
        corpus_seed: Seed the training corpus was generated from.
        ridge: Ridge regularization strength used by the fit.
    """

    models: Dict[str, LinearModel]
    corpus_seed: int = 0
    ridge: float = 0.0

    def key(self, spec: str, rate: RateSpec) -> str:
        return f"{spec}|{rate_mode(spec, rate)}"

    def can_predict(self, spec: str, rate: RateSpec) -> bool:
        return self.key(spec, rate) in self.models

    def predict_seconds(self, spec: str, rate: RateSpec,
                        features: JobFeatures) -> float:
        """Predicted seconds for one job at one operating point.

        Raises ``KeyError`` when no model was trained for the point; use
        :meth:`can_predict` to guard speculative lookups.
        """
        return self.models[self.key(spec, rate)].predict(features)

    def specs(self) -> Tuple[str, ...]:
        """Sorted distinct ``backend:preset`` specs with trained models."""
        return tuple(sorted({key.partition("|")[0] for key in self.models}))

    def as_dict(self) -> dict:
        return {
            "version": MODEL_VERSION,
            "feature_names": list(FEATURE_NAMES),
            "corpus_seed": self.corpus_seed,
            "ridge": self.ridge,
            "models": {
                key: list(model.coefficients)
                for key, model in sorted(self.models.items())
            },
        }

    def to_json(self) -> str:
        """Byte-stable JSON (sorted keys, repr-round-trip floats)."""
        return stable_json(self.as_dict()) + "\n"

    def digest(self) -> str:
        return sha256_hex(self.to_json())

    @classmethod
    def from_dict(cls, payload: dict) -> "TranscodeTimePredictor":
        version = payload.get("version")
        if version != MODEL_VERSION:
            raise ValueError(
                f"predictor model version {version!r} is not supported "
                f"(expected {MODEL_VERSION}); retrain with repro.predict.train"
            )
        names = tuple(payload.get("feature_names", ()))
        if names != FEATURE_NAMES:
            raise ValueError(
                "predictor feature order does not match this build "
                f"({names!r} vs {FEATURE_NAMES!r}); retrain"
            )
        return cls(
            models={
                key: LinearModel(coefficients=tuple(coefs))
                for key, coefs in payload["models"].items()
            },
            corpus_seed=int(payload.get("corpus_seed", 0)),
            ridge=float(payload.get("ridge", 0.0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "TranscodeTimePredictor":
        return cls.from_dict(json.loads(text))


#: Committed coefficients, regenerated by ``repro sched --retrain``.
_COEFFICIENTS_PATH = Path(__file__).with_name("coefficients.json")

_DEFAULT: Optional[TranscodeTimePredictor] = None


def coefficients_path() -> Path:
    """Where the committed coefficients live (``repro sched --retrain``)."""
    return _COEFFICIENTS_PATH


def default_predictor() -> TranscodeTimePredictor:
    """The shipped predictor, loaded once from ``coefficients.json``."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = TranscodeTimePredictor.from_json(
            _COEFFICIENTS_PATH.read_text(encoding="utf-8")
        )
    return _DEFAULT
