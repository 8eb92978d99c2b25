"""The common transcoder interface and result type.

A *transcode* converts one compressed representation into another; our
inputs arrive as raw :class:`~repro.video.video.Video` (the universal
intermediate format of Section 2.5), and the backends produce a compressed
stream plus its reconstruction.  ``TranscodeResult`` carries everything the
paper's three metric axes need: compressed size, output pixels, and time.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.codec.instrumentation import Counters
from repro.metrics.bitrate import bitrate_bps, bits_per_pixel_second
from repro.metrics.psnr import psnr
from repro.metrics.speed import megapixels_per_second
from repro.video.video import Video

__all__ = ["RateSpec", "ScaledTranscoder", "TranscodeResult", "Transcoder"]


@dataclass(frozen=True)
class RateSpec:
    """How the encoder should spend bits.

    * ``RateSpec.crf(18)`` -- constant quality (Upload reference).
    * ``RateSpec.abr(2e6)`` -- single-pass bitrate (Live).
    * ``RateSpec.abr(2e6, two_pass=True)`` -- two-pass bitrate (VOD,
      Popular).
    """

    kind: str
    crf: Optional[int] = None
    bitrate_bps: Optional[float] = None
    two_pass: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("crf", "abr"):
            raise ValueError(f"unknown rate kind {self.kind!r}")
        if self.kind == "crf":
            if self.crf is None:
                raise ValueError("crf rate spec needs a crf value")
            if not math.isfinite(self.crf):
                raise ValueError(f"crf must be finite, got {self.crf}")
            if self.two_pass:
                raise ValueError("two-pass requires a bitrate target")
        if self.kind == "abr" and (
            self.bitrate_bps is None
            or not math.isfinite(self.bitrate_bps)
            or self.bitrate_bps <= 0
        ):
            raise ValueError(
                "abr rate spec needs a positive finite bitrate, got "
                f"{self.bitrate_bps}"
            )

    @classmethod
    def for_crf(cls, crf: int) -> "RateSpec":
        return cls(kind="crf", crf=crf)

    @classmethod
    def for_bitrate(cls, bitrate_bps: float, two_pass: bool = False) -> "RateSpec":
        return cls(kind="abr", bitrate_bps=bitrate_bps, two_pass=two_pass)


class _Quality:
    """The measured PSNR of one ``(source, output)`` pair, filled on first use."""

    __slots__ = ("source", "output", "db")

    def __init__(self, source: Video, output: Video) -> None:
        self.source = source
        self.output = output
        self.db: Optional[float] = None


@dataclass(frozen=True)
class TranscodeResult:
    """One transcode's outputs and costs -- a value, never updated in place.

    A wrapper that changes what a transcode cost or produced (time
    scaling, fault injection) derives a new result with
    ``dataclasses.replace``; whoever holds a result may share it.
    ``quality_db`` is measured once per ``(source, output)`` pair: a
    derivation that keeps both carries the measurement along, one that
    swaps either (a corrupted output) starts an unmeasured one of its own.

    Attributes:
        source: The input video (kept for metric computation).
        output: The reconstructed (decoded) output video.
        compressed_bytes: Size of the produced stream.
        seconds: Modeled transcode time on the reference platform -- the
            deterministic quantity all speed ratios use.
        wall_seconds: Actual wall-clock spent (diagnostics only).
        counters: Kernel-work counters (SIMD/uarch studies).
        backend: Name of the transcoder that produced this.
    """

    source: Video
    output: Video
    compressed_bytes: int
    seconds: float
    wall_seconds: float
    counters: Counters
    backend: str
    _quality: Optional[_Quality] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        carried = self._quality
        if (
            carried is None
            or carried.source is not self.source
            or carried.output is not self.output
        ):
            object.__setattr__(self, "_quality", _Quality(self.source, self.output))

    @property
    def quality_db(self) -> float:
        """Average YCbCr PSNR of the output against the source."""
        quality = self._quality
        if quality.db is None:
            quality.db = psnr(self.source, self.output)
        return quality.db

    @property
    def bitrate(self) -> float:
        """Bits per second of the compressed stream."""
        return bitrate_bps(self.compressed_bytes, self.source.duration)

    @property
    def bits_per_pixel_second(self) -> float:
        """Resolution-normalized bitrate (the paper's size metric)."""
        return bits_per_pixel_second(
            self.compressed_bytes,
            self.source.duration,
            self.source.frame_pixels,
        )

    @property
    def speed_mpixels(self) -> float:
        """Transcoding speed in Mpixel/s (the paper's speed metric)."""
        return megapixels_per_second(self.source.pixels, self.seconds)


class Transcoder(abc.ABC):
    """A transcoding backend (software encoder or hardware model)."""

    #: Human-readable backend name, set by subclasses.
    name: str = "abstract"

    @abc.abstractmethod
    def transcode(self, video: Video, rate: RateSpec) -> TranscodeResult:
        """Transcode ``video`` under the given rate specification."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ScaledTranscoder(Transcoder):
    """A backend whose modeled ``seconds`` are multiplied by a constant.

    The benchmark's clips are tiny stand-ins for the category resolutions
    they represent (``Video.nominal_resolution``), so their modeled
    transcode times are milliseconds even though the titles they stand for
    take seconds.  The traffic simulator scales modeled time back up so
    queueing, deadlines, and autoscaling operate at the represented scale.
    Each call returns a result derived from the inner one with only
    ``seconds`` changed; the inner result (which a memo below may be
    sharing) is left as it was.
    """

    def __init__(self, inner: Transcoder, factor: float) -> None:
        if not math.isfinite(factor) or factor <= 0:
            raise ValueError(
                f"time scale must be a positive finite factor, got {factor}"
            )
        self.inner = inner
        self.factor = float(factor)
        self.name = inner.name

    def transcode(self, video: Video, rate: RateSpec) -> TranscodeResult:
        result = self.inner.transcode(video, rate)
        return replace(result, seconds=result.seconds * self.factor)

    def __repr__(self) -> str:
        return f"ScaledTranscoder(inner={self.inner!r}, factor={self.factor})"
