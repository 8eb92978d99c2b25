"""Software transcoder backends.

``X264Transcoder`` is the workhorse: our codec with H.264-class tools and
the x264 preset ladder.  ``X265Transcoder`` and ``VP9Transcoder`` model the
newer-generation encoders of Table 5 and Figure 2 by enabling genuinely
stronger tools -- the 16x16 transform, CABAC, RD-optimized quantization,
wider motion search -- which really do shrink the bitstream and really do
cost more modeled (and wall-clock) time.  Nothing about their advantage is
asserted; it falls out of the codec.

Speed is the deterministic cycle model (:func:`repro.simd.modeled_seconds`)
evaluated at AVX2, the reference machine's best ISA.
"""

from __future__ import annotations

from repro.codec.encoder import encode
from repro.codec.presets import EncoderConfig, preset
from repro.encoders.base import RateSpec, Transcoder, TranscodeResult
from repro.simd.analysis import modeled_seconds
from repro.simd.isa import IsaLevel
from repro.video.video import Video

__all__ = [
    "AV1Transcoder",
    "SoftwareTranscoder",
    "VP9Transcoder",
    "X264Transcoder",
    "X265Transcoder",
]


class SoftwareTranscoder(Transcoder):
    """Generic software backend around an :class:`EncoderConfig`.

    Args:
        name: Backend name for reports.
        config: The codec configuration (tools + effort).
        isa: ISA level for the speed model (default AVX2).
    """

    def __init__(
        self,
        name: str,
        config: EncoderConfig,
        isa: IsaLevel = IsaLevel.AVX2,
    ) -> None:
        self.name = name
        self.config = config
        self.isa = isa

    def transcode(self, video: Video, rate: RateSpec) -> TranscodeResult:
        if rate.kind == "crf":
            result = encode(video, config=self.config, crf=rate.crf)
        else:
            result = encode(
                video,
                config=self.config,
                bitrate_bps=rate.bitrate_bps,
                two_pass=rate.two_pass,
            )
        # Counters are in 8x8-equivalent transform units, so no
        # transform-size rescale is needed here.
        seconds = modeled_seconds(result.counters, isa=self.isa)
        return TranscodeResult(
            source=video,
            output=result.recon,
            compressed_bytes=len(result.bitstream),
            seconds=seconds,
            counters=result.counters,
            backend=self.name,
        )


class X264Transcoder(SoftwareTranscoder):
    """The H.264-class reference encoder (Section 4.2's baseline).

    ``preset`` follows the x264 ladder (``ultrafast`` ... ``placebo``).
    """

    def __init__(self, preset_name: str = "medium") -> None:
        super().__init__(f"x264-{preset_name}", preset(preset_name))


#: Tool upgrades that turn an x264-class config into an HEVC-class one.
_X265_TOOLS = dict(
    transform_size=16,
    entropy_coder="cabac",
    rdoq=True,
    chroma_subpel=True,
)

#: VP9-class encoders at high effort (cpu-used 0) push even further:
#: exhaustive-leaning search and no early outs.
_VP9_TOOLS = dict(
    transform_size=16,
    entropy_coder="cabac",
    rdoq=True,
    early_skip=False,
    search_range=32,
    me_iterations=10,
    subpel_depth=2,
    chroma_subpel=True,
    references=2,
)

#: AV1-class encoders (the paper's "expected to continue with the release
#: of the AV1 codec"): the VP9 toolset pushed further -- exhaustive-style
#: search on top of everything else.
_AV1_TOOLS = dict(
    transform_size=16,
    entropy_coder="cabac",
    rdoq=True,
    early_skip=False,
    search_range=24,
    me_iterations=12,
    subpel_depth=2,
    chroma_subpel=True,
    references=2,
)


class X265Transcoder(SoftwareTranscoder):
    """HEVC-class software encoder: large transforms, CABAC, RDOQ.

    Table 5 uses ``-preset veryslow``; the default mirrors that.
    """

    def __init__(self, preset_name: str = "veryslow") -> None:
        base = preset(preset_name)
        super().__init__(
            f"x265-{preset_name}", base.derived(**_X265_TOOLS)
        )


class VP9Transcoder(SoftwareTranscoder):
    """VP9-class software encoder (libvpx ``cpu-used 0`` in Table 5).

    The HEVC-class toolset plus a wider, non-early-terminating search and
    a two-frame reference list.
    """

    def __init__(self, preset_name: str = "veryslow") -> None:
        base = preset(preset_name)
        super().__init__(
            f"vp9-{preset_name}", base.derived(**_VP9_TOOLS)
        )


class AV1Transcoder(SoftwareTranscoder):
    """AV1-class software encoder: the next rung the paper anticipates.

    Every tool in the suite at its highest setting; the slowest backend
    by a wide margin, with the best compression.
    """

    def __init__(self, preset_name: str = "veryslow") -> None:
        base = preset(preset_name)
        super().__init__(f"av1-{preset_name}", base.derived(**_AV1_TOOLS))
