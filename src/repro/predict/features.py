"""Deterministic per-job feature extraction for transcode-time prediction.

"High-Quality Live Video Streaming via Transcoding Time Prediction and
Preset Selection" (PAPERS.md, arXiv 2312.05348) predicts per-job
transcode time from cheap content descriptors so a scheduler can pick
the heaviest preset that still meets the deadline.  This module produces
those descriptors for our codec:

* **geometry** -- resolution, frame count, frame rate (free);
* **measured entropy** -- the paper's own content-complexity measure
  (Section 4.1): steady-state bits/pixel/second at the CRF-18
  constant-quality point, here taken from the probe encode below;
* **first-pass motion/residual statistics** -- block-mode mix (skip /
  inter / intra shares), residual density (nonzero transform
  coefficients per pixel), and the probe's own cycle-modeled seconds,
  all read off the :class:`~repro.codec.types.FrameStats` and
  :class:`~repro.codec.instrumentation.Counters` a single *ultrafast*
  CRF-18 probe encode already produces.

One probe encode yields every feature, and the probe is the cheapest
preset in the ladder, so extraction costs a small fraction of any real
transcode the prediction will be used to schedule.

Determinism is load-bearing (the clock and RNG hygiene tests cover all
of ``src/``): the codec is a pure function of ``(video, config)`` that
reads no clock, and every feature below is arithmetic over its integer
statistics and modelled seconds.  The same video therefore always maps
to the same feature vector, byte for byte.  The feature vector also
avoids transcendental functions (no ``log``/``exp``), so training and
inference stay bit-identical across platforms and libm versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.codec.encoder import Encoder
from repro.codec.ratecontrol import RateControl
from repro.codec.types import FrameType
from repro.simd.analysis import modeled_seconds
from repro.video.entropy import steady_state_bpps
from repro.video.video import Video

__all__ = ["FEATURE_NAMES", "JobFeatures", "extract_features"]

#: The probe operating point: the fastest preset at the paper's
#: "visually lossless" constant-quality point (Section 4.1), mirroring
#: :func:`repro.video.entropy.measure_entropy`'s CRF.
PROBE_PRESET = "ultrafast"
PROBE_CRF = 18

#: Names of the regression inputs, in the exact order
#: :meth:`JobFeatures.vector` emits them.  Models are tuples of
#: coefficients over this order; changing it is a model-format break
#: (bump :data:`repro.predict.model.MODEL_VERSION`).
FEATURE_NAMES = (
    "bias",
    "megapixels",           # total luma Mpixels of the clip
    "frame_megapixels",     # luma Mpixels per frame (resolution)
    "frames",
    "fps",
    "entropy_bpps",         # measured entropy, bits/pixel/second
    "motion_share",         # inter (searched) block fraction
    "skip_share",           # early-skip block fraction
    "residual_density",     # nonzero coefficients per luma pixel
    "probe_seconds",        # cycle-modeled seconds of the probe encode
)


@dataclass(frozen=True)
class JobFeatures:
    """Everything the time predictor may know about one job's content.

    Attributes:
        width: Stored luma width in pixels.
        height: Stored luma height in pixels.
        frames: Frame count.
        fps: Frame rate.
        entropy_bpps: Steady-state probe bits/pixel/second (the paper's
            entropy measure, at the probe preset).
        motion_share: Fraction of P-frame macroblocks coded inter (the
            blocks that paid for a motion search); 0.0 for all-intra
            clips.
        skip_share: Fraction of P-frame macroblocks early-skipped.
        residual_density: Nonzero quantized coefficients per luma pixel
            across the whole probe encode.
        probe_seconds: Cycle-modeled seconds of the probe encode itself
            (the strongest single predictor: every heavier preset is,
            to first order, a content-dependent multiple of it).
    """

    width: int
    height: int
    frames: int
    fps: float
    entropy_bpps: float
    motion_share: float
    skip_share: float
    residual_density: float
    probe_seconds: float

    def vector(self) -> Tuple[float, ...]:
        """The regression input, ordered as :data:`FEATURE_NAMES`."""
        frame_pixels = self.width * self.height
        return (
            1.0,
            frame_pixels * self.frames / 1e6,
            frame_pixels / 1e6,
            float(self.frames),
            float(self.fps),
            self.entropy_bpps,
            self.motion_share,
            self.skip_share,
            self.residual_density,
            self.probe_seconds,
        )


def extract_features(video: Video) -> JobFeatures:
    """One ultrafast CRF-18 probe encode, reduced to a feature vector.

    Pure in ``video``: the probe is deterministic and reads no clock.
    """
    result = Encoder(PROBE_PRESET).encode(video, RateControl.crf(PROBE_CRF))
    stats = result.stats
    # The paper's entropy measure, by its one rule (DESIGN.md: the
    # one-time intra-refresh cost would dominate ~1 s stand-in clips).
    entropy_bpps = steady_state_bpps(stats, video)
    p_total = sum(
        s.total_blocks for s in stats if s.frame_type is not FrameType.I
    )
    inter = sum(
        s.inter_blocks for s in stats if s.frame_type is not FrameType.I
    )
    skipped = sum(
        s.skip_blocks for s in stats if s.frame_type is not FrameType.I
    )
    nonzero = sum(s.nonzero_coeffs for s in stats)
    return JobFeatures(
        width=video.width,
        height=video.height,
        frames=len(video),
        fps=video.fps,
        entropy_bpps=entropy_bpps,
        motion_share=inter / p_total if p_total else 0.0,
        skip_share=skipped / p_total if p_total else 0.0,
        residual_density=nonzero / video.pixels,
        probe_seconds=modeled_seconds(result.counters),
    )
