"""Encoder configuration: the effort-level knobs and named presets.

The paper (Section 2.2) describes encoding effort as a restriction of the
heuristic search: motion search range and method, sub-pixel precision,
entropy coder, RD-optimized quantization, transform size.  More effort
finds better transcodes (lower bitrate at equal quality) at the cost of
compute.  ``EncoderConfig`` exposes exactly those knobs, and ``PRESETS``
arranges them into an x264-style ladder from ``ultrafast`` to ``placebo``.

Two extra configurations model the *newer-codec* encoders of Table 5
(libx265/libvpx-vp9): they enable the large 16x16 transform, CABAC, RDOQ
and wide search -- genuinely stronger tools, genuinely slower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict

__all__ = ["EncoderConfig", "PRESETS", "preset"]


@dataclass(frozen=True)
class EncoderConfig:
    """Every tool/effort knob of the codec.

    Attributes:
        search_method: Motion search: ``"none"``, ``"log"`` or ``"full"``.
        search_range: Max integer-pel displacement.
        subpel_depth: Sub-pel motion refinement: 0 = integer only,
            1 = half-pel, 2 = quarter-pel.
        me_iterations: Moves per step in the log search.
        entropy_coder: ``"cavlc"`` (vectorized VLC) or ``"cabac"``
            (adaptive arithmetic coding; slower, ~10% smaller).
        transform_size: Residual transform: 8 (H.264-class) or 16
            (HEVC/VP9-class large transform).
        rdoq: Rate-distortion-optimized quantization (level thresholding).
        deblock: In-loop deblocking filter.
        keyint: Maximum keyframe interval in frames.
        scene_cut: Mean-abs-luma-diff threshold that forces an I frame.
        flat_quant: Flat quantization matrix (True, x264-style) or the
            perceptual HVS ramp.
        early_skip: Skip motion search when the zero-MV SAD is tiny.
        references: Reference frames searched per P frame (1 or 2).
            Two references help occlusions and noisy content -- another
            HEVC/VP9-class tool that costs search time.
        chroma_subpel: Interpolate chroma prediction at eighth-pel
            precision instead of rounding to full pel -- an HEVC/VP9-class
            tool (H.264-class encoders round).
        skip_bias: Multiplier on the early-skip threshold.  Values above 1
            trade quality for speed by skipping more aggressively -- the
            lever real encoders pull under hard latency pressure (live
            streaming at high resolutions).
        chroma_qp_offset: QP delta applied to chroma planes.
        container_version: Bitstream container to emit: 2 (default; the
            error-resilient packetized RPV2 format) or 1 (the legacy
            unprotected RPV1 layout, kept writable for back-compat
            testing).  Decoders read both.
    """

    search_method: str = "log"
    search_range: int = 16
    subpel_depth: int = 1
    me_iterations: int = 4
    entropy_coder: str = "cavlc"
    transform_size: int = 8
    rdoq: bool = False
    deblock: bool = True
    keyint: int = 250
    scene_cut: float = 22.0
    flat_quant: bool = True
    early_skip: bool = True
    skip_bias: float = 1.0
    chroma_qp_offset: int = 2
    chroma_subpel: bool = False
    references: int = 1
    container_version: int = 2

    def __post_init__(self) -> None:
        if self.container_version not in (1, 2):
            raise ValueError(
                f"container version must be 1 or 2, got {self.container_version}"
            )
        if not math.isfinite(self.skip_bias) or self.skip_bias <= 0:
            raise ValueError(
                f"skip_bias must be positive and finite, got {self.skip_bias}"
            )
        if math.isnan(self.scene_cut):
            raise ValueError("scene_cut must be a number, got nan")
        if self.references not in (1, 2):
            raise ValueError(f"references must be 1 or 2, got {self.references}")
        if self.search_method not in ("none", "log", "full"):
            raise ValueError(f"unknown search method {self.search_method!r}")
        if self.search_range < 0:
            raise ValueError(f"search range must be >= 0, got {self.search_range}")
        if self.entropy_coder not in ("cavlc", "cabac"):
            raise ValueError(f"unknown entropy coder {self.entropy_coder!r}")
        if self.transform_size not in (8, 16):
            raise ValueError(
                f"transform size must be 8 or 16, got {self.transform_size}"
            )
        if self.subpel_depth not in (0, 1, 2):
            raise ValueError(
                f"subpel_depth must be 0, 1 or 2, got {self.subpel_depth}"
            )
        if self.me_iterations < 1:
            raise ValueError(f"me_iterations must be >= 1, got {self.me_iterations}")
        if self.keyint < 1:
            raise ValueError(f"keyint must be >= 1, got {self.keyint}")

    def derived(self, **changes) -> "EncoderConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


#: The effort ladder.  Speed falls and compression rises monotonically from
#: top to bottom, mirroring x264's preset semantics.
PRESETS: Dict[str, EncoderConfig] = {
    "ultrafast": EncoderConfig(
        search_method="log",
        search_range=4,
        subpel_depth=0,
        me_iterations=1,
        entropy_coder="cavlc",
        deblock=False,
        early_skip=True,
    ),
    "veryfast": EncoderConfig(
        search_method="log",
        search_range=8,
        subpel_depth=0,
        me_iterations=2,
        entropy_coder="cavlc",
    ),
    "fast": EncoderConfig(
        search_method="log",
        search_range=12,
        subpel_depth=1,
        me_iterations=3,
        entropy_coder="cavlc",
    ),
    "medium": EncoderConfig(
        search_method="log",
        search_range=16,
        subpel_depth=1,
        me_iterations=4,
        entropy_coder="cavlc",
    ),
    "slow": EncoderConfig(
        search_method="log",
        search_range=16,
        subpel_depth=1,
        me_iterations=6,
        entropy_coder="cabac",
    ),
    "veryslow": EncoderConfig(
        search_method="log",
        search_range=24,
        subpel_depth=2,
        me_iterations=8,
        entropy_coder="cabac",
        rdoq=True,
        early_skip=False,
    ),
    "placebo": EncoderConfig(
        search_method="full",
        search_range=16,
        subpel_depth=2,
        me_iterations=8,
        entropy_coder="cabac",
        rdoq=True,
        early_skip=False,
    ),
}


def preset(name: str) -> EncoderConfig:
    """Look up a named preset."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; expected one of {sorted(PRESETS)}"
        ) from None
