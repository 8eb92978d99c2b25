"""Rate control: choosing quantizers to hit a quality or bitrate target.

Three modes, mirroring the paper's Section 2.2:

* **CRF** (constant rate factor): sustain a constant quality level, using
  as many bits as needed.  The bits a CRF-18 encode uses *is* the paper's
  entropy measure.
* **ABR** (single-pass average bitrate): a feedback controller nudges QP
  frame by frame to keep the running bit consumption on budget.  This is
  the low-latency mode live streaming must use.
* **Two-pass**: the first pass records per-frame complexity; the second
  allocates the bit budget proportionally to complexity (compressed with
  the x264-style 0.6 exponent) and converts each frame's allocation into a
  QP through the inverse rate model, with closed-loop correction.

The rate model is the classic ``bits ~ complexity / qstep``: doubling the
quantizer step roughly halves the bits.
"""

from __future__ import annotations

import enum
import math
from typing import List, Optional, Sequence

from repro.codec.quant import QP_MAX, QP_MIN, clamp_qp, qp_to_qstep
from repro.codec.types import FrameType

__all__ = ["RateControlMode", "RateControl"]

#: I frames are quantized a little finer: they seed the prediction chain.
_I_FRAME_QP_DELTA = -3
#: Max per-frame QP swing, keeps ABR from oscillating.
_MAX_QP_STEP = 3
#: Complexity compression exponent (x264's qcomp default is 0.6).
_QCOMP = 0.6


class RateControlMode(enum.Enum):
    """Which rate-control strategy the encoder runs."""

    CRF = "crf"
    ABR = "abr"
    TWO_PASS = "two_pass"


class RateControl:
    """Per-frame QP planner with feedback.

    Construct with :meth:`crf`, :meth:`abr`, or :meth:`two_pass`, then for
    each frame call :meth:`frame_qp` before encoding and :meth:`feedback`
    after.
    """

    def __init__(
        self,
        mode: RateControlMode,
        crf: Optional[int] = None,
        bitrate_bps: Optional[float] = None,
        fps: Optional[float] = None,
        complexities: Optional[Sequence[float]] = None,
        frame_pixels: Optional[int] = None,
    ) -> None:
        self.mode = mode
        self._frame_index = 0
        self._bits_spent = 0.0
        if mode is RateControlMode.CRF:
            if crf is None or not QP_MIN <= crf <= QP_MAX:
                raise ValueError(f"CRF mode needs crf in [{QP_MIN}, {QP_MAX}], got {crf}")
            self._crf = int(crf)
            return
        if bitrate_bps is None or bitrate_bps <= 0:
            raise ValueError(f"bitrate modes need a positive bitrate, got {bitrate_bps}")
        if fps is None or fps <= 0:
            raise ValueError(f"bitrate modes need a positive fps, got {fps}")
        self._bitrate = float(bitrate_bps)
        self._fps = float(fps)
        self._bits_per_frame = self._bitrate / self._fps
        # Initial QP: blind default, or (much better) derived from the
        # target bits-per-pixel through the codec's empirical rate model
        # bits/pixel ~ 1.8 / qstep.  Short clips never converge from a
        # blind start, so the guess matters.
        if frame_pixels is not None and frame_pixels > 0:
            bpp = self._bits_per_frame / frame_pixels
            guess = 4.0 + 6.0 * math.log2(max(4.0 / max(bpp, 1e-6), 2 ** -0.5))
            self._qp_state = float(max(QP_MIN, min(45, guess)))
        else:
            self._qp_state = 30.0  # running QP estimate updated by feedback
        self._model_scale: Optional[float] = None  # bits * qstep per frame, learnt
        if mode is RateControlMode.TWO_PASS:
            if not complexities:
                raise ValueError("two-pass mode needs first-pass complexities")
            self._plan = self._allocate(list(complexities))
        elif complexities is not None:
            raise ValueError("ABR mode does not take complexities")

    # -- constructors -------------------------------------------------------

    @classmethod
    def crf(cls, crf: int) -> "RateControl":
        """Constant-quality mode."""
        return cls(RateControlMode.CRF, crf=crf)

    @classmethod
    def abr(
        cls, bitrate_bps: float, fps: float, frame_pixels: Optional[int] = None
    ) -> "RateControl":
        """Single-pass average-bitrate mode.

        ``frame_pixels`` (when known) seeds the initial QP from the target
        bits-per-pixel instead of a blind default.
        """
        return cls(
            RateControlMode.ABR, bitrate_bps=bitrate_bps, fps=fps,
            frame_pixels=frame_pixels,
        )

    @classmethod
    def two_pass(
        cls,
        bitrate_bps: float,
        fps: float,
        complexities: Sequence[float],
        frame_pixels: Optional[int] = None,
    ) -> "RateControl":
        """Second pass of two-pass encoding.

        ``complexities`` are the per-frame bit costs recorded by the first
        pass (at any constant QP); only their relative sizes matter.
        """
        return cls(
            RateControlMode.TWO_PASS,
            bitrate_bps=bitrate_bps,
            fps=fps,
            complexities=complexities,
            frame_pixels=frame_pixels,
        )

    # -- allocation -----------------------------------------------------------

    def _allocate(self, complexities: List[float]) -> List[float]:
        """Per-frame bit targets proportional to compressed complexity.

        Raising complexity to ``qcomp < 1`` moves bits from the hardest
        frames to the easiest, smoothing quality (exactly why x264 does
        it); the budget is the full clip budget.
        """
        floor = max(1.0, max(complexities) * 1e-3)
        weights = [max(c, floor) ** _QCOMP for c in complexities]
        total_weight = sum(weights)
        budget = self._bits_per_frame * len(complexities)
        return [budget * w / total_weight for w in weights]

    # -- per-frame interface ---------------------------------------------------

    def frame_qp(self, frame_type: FrameType) -> int:
        """QP to use for the next frame."""
        if self.mode is RateControlMode.CRF:
            qp = self._crf
        elif self.mode is RateControlMode.ABR:
            qp = self._qp_state + self._abr_correction()
        else:
            qp = self._two_pass_qp()
        if frame_type is FrameType.I:
            qp += _I_FRAME_QP_DELTA
        return clamp_qp(round(qp))

    def feedback(self, frame_type: FrameType, qp: int, bits: int) -> None:
        """Report the actual bits the frame cost; updates the controller."""
        if bits < 0:
            raise ValueError(f"bits must be non-negative, got {bits}")
        self._bits_spent += bits
        if self.mode is RateControlMode.CRF:
            self._frame_index += 1
            return
        # Learn the rate model bits * qstep ~ scale, EWMA-smoothed.  I
        # frames are excluded: their cost is structurally different.
        if frame_type is not FrameType.I and bits > 0:
            observed = bits * qp_to_qstep(qp)
            if self._model_scale is None:
                self._model_scale = observed
            else:
                self._model_scale = 0.7 * self._model_scale + 0.3 * observed
        if self.mode is RateControlMode.ABR:
            self._update_abr_state()
        self._frame_index += 1

    # -- internals -----------------------------------------------------------

    def _update_abr_state(self) -> None:
        """Move the QP estimate toward what the rate model says is needed."""
        if self._model_scale is None:
            return
        wanted_qstep = self._model_scale / self._bits_per_frame
        wanted_qp = 4.0 + 6.0 * math.log2(max(wanted_qstep, 1e-9))
        step = max(-_MAX_QP_STEP, min(_MAX_QP_STEP, wanted_qp - self._qp_state))
        self._qp_state += step

    def _abr_correction(self) -> float:
        """Buffer-fullness correction: pay back accumulated over/under-spend.

        The correction is allowed twice the per-frame adaptation swing:
        short clips (one-second live segments) blow most of their budget
        on the leading I frame and must claw it back within a few frames.
        """
        if self._frame_index == 0:
            return 0.0
        planned = self._bits_per_frame * self._frame_index
        # Positive error = overspent -> raise QP.
        error = (self._bits_spent - planned) / max(planned, 1.0)
        limit = 2.0 * _MAX_QP_STEP
        return max(-limit, min(limit, 12.0 * error))

    def _two_pass_qp(self) -> float:
        """QP for the next frame from its planned allocation."""
        if self._frame_index >= len(self._plan):
            raise ValueError(
                f"two-pass plan covers {len(self._plan)} frames; "
                f"frame {self._frame_index} requested"
            )
        target = self._plan[self._frame_index]
        # Closed loop: scale the remaining targets by the remaining budget.
        remaining_planned = sum(self._plan[self._frame_index :])
        total_budget = self._bits_per_frame * len(self._plan)
        remaining_budget = total_budget - self._bits_spent
        if remaining_planned > 0 and self._frame_index > 0:
            correction = max(0.25, min(4.0, remaining_budget / remaining_planned))
            target *= correction
        target = max(target, 1.0)
        if self._model_scale is None:
            # No feedback yet: start from a neutral guess.
            return self._qp_state
        wanted_qstep = self._model_scale / target
        return 4.0 + 6.0 * math.log2(max(wanted_qstep, 1e-9))
