"""Transcode-time prediction (deadline-aware scheduling's crystal ball).

vbench's Live and Upload scenarios are defined by deadlines and
throughput targets, but a scheduler can only trade quality against a
deadline if it knows, *before* running a job, roughly how long each
operating point would take.  Following "High-Quality Live Video
Streaming via Transcoding Time Prediction and Preset Selection"
(PAPERS.md), this package provides exactly that:

* :mod:`repro.predict.features` -- deterministic per-job descriptors
  from one cheap probe encode;
* :mod:`repro.predict.model` -- per-(spec, mode) linear models and the
  committed-coefficients loader;
* :mod:`repro.predict.train` -- the pure ``(corpus, seed)`` -> model
  fit that regenerates ``coefficients.json`` reproducibly.

No randomness and no wall-clock value may flow into a feature, a
label, or a prediction; the hygiene tests ``test_src_reads_no_clock`` and
``test_src_reads_no_global_rng`` hold all of ``src/`` to that.
"""

from repro.predict.features import FEATURE_NAMES, JobFeatures, extract_features
from repro.predict.model import (
    LinearModel,
    TranscodeTimePredictor,
    default_predictor,
    rate_mode,
)
from repro.predict.train import TRAIN_SPECS, train_predictor, training_corpus

__all__ = [
    "FEATURE_NAMES",
    "JobFeatures",
    "LinearModel",
    "TRAIN_SPECS",
    "TranscodeTimePredictor",
    "default_predictor",
    "extract_features",
    "rate_mode",
    "train_predictor",
    "training_corpus",
]
