"""Reference transcode operations: the measuring sticks of Section 4.2.

For every suite video, each scenario has a reference transcode "grounded
in real-world video sharing infrastructure" that candidates are scored
against:

* **Upload**: single pass, constant quality (CRF 18) -- the original must
  not degrade; bits are cheap because the result is temporary.
* **Live**: single pass at the VOD target bitrate, with the encoder
  effort level *inversely proportional to resolution* so the real-time
  latency bound holds -- selected empirically per video by walking a
  degradation ladder until the modeled speed sustains the output pixel
  rate.
* **VOD** (also the **Platform** reference): two-pass at the target
  bitrate, medium effort -- the average offline case.
* **Popular**: two-pass at the target bitrate at the highest effort
  (``veryslow``): quality and bits matter, compute is amortized.

The *VOD target bitrate* for a video is the size of its CRF-23 (default
quality) encode -- a per-content operating point, like the per-title
ladders real services use.

References are deterministic but expensive, so :class:`ReferenceStore`
computes them lazily and caches per video.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.codec.presets import EncoderConfig, preset
from repro.encoders.base import RateSpec, Transcoder, TranscodeResult
from repro.encoders.software import SoftwareTranscoder, X264Transcoder
from repro.video.video import Video

from repro.core.scenarios import Scenario

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.exec.cache import TranscodeCache

__all__ = ["ReferenceStore", "live_ladder", "vod_target_bitrate"]

#: Upload reference: visually lossless single pass.
_UPLOAD_CRF = 18
#: The VOD target operating point (libx264's default quality).
_VOD_TARGET_CRF = 23


def live_ladder() -> List[Tuple[str, EncoderConfig]]:
    """The effort-degradation ladder live references walk, fast to faster.

    The final rungs trade quality hard for speed (huge skip bias, no
    search, no loop filter) -- what software encoders actually do when
    they must not fall behind a live stream (Section 6.1).
    """
    return [
        ("medium", preset("medium")),
        ("fast", preset("fast")),
        ("veryfast", preset("veryfast")),
        ("ultrafast", preset("ultrafast")),
        ("ultrafast+skip4", preset("ultrafast").derived(skip_bias=4.0)),
        (
            "turbo",
            preset("ultrafast").derived(
                skip_bias=16.0, search_method="none", deblock=False
            ),
        ),
    ]


def vod_target_bitrate(
    video: Video, cache: Optional["TranscodeCache"] = None
) -> float:
    """Per-video VOD target bitrate (bits/second): the CRF-23 size."""
    transcoder: Transcoder = X264Transcoder("medium")
    if cache is not None:
        transcoder = cache.wrap(transcoder)
    result = transcoder.transcode(video, RateSpec.for_crf(_VOD_TARGET_CRF))
    return result.bitrate


@dataclass
class Reference:
    """A computed reference: the transcode plus how it was produced."""

    result: TranscodeResult
    rate: RateSpec
    config_label: str


class ReferenceStore:
    """Lazily computes and caches per-video scenario references.

    Two cache layers: the in-memory per-store maps below (one store per
    suite -- never shared between callers), and an optional persistent
    :class:`~repro.exec.cache.TranscodeCache` every reference encode is
    routed through, so reference work survives the process.
    """

    def __init__(self) -> None:
        self._targets: Dict[str, float] = {}
        self._refs: Dict[Tuple[str, Scenario], Reference] = {}
        self._cache: Optional["TranscodeCache"] = None

    @property
    def cache(self) -> Optional["TranscodeCache"]:
        """The attached persistent transcode cache, if any."""
        return self._cache

    def attach_cache(self, cache: "TranscodeCache") -> None:
        """Route subsequent reference encodes through ``cache``."""
        self._cache = cache

    def target_bitrate(self, video: Video) -> float:
        """The video's VOD target bitrate (cached)."""
        key = self._key(video)
        if key not in self._targets:
            self._targets[key] = vod_target_bitrate(video, cache=self._cache)
        return self._targets[key]

    def reference(self, video: Video, scenario: Scenario) -> Reference:
        """The scenario's reference transcode for ``video`` (cached)."""
        key = (self._key(video), scenario)
        if key not in self._refs:
            self._refs[key] = self._compute(video, scenario)
        return self._refs[key]

    def install(self, video: Video, scenario: Scenario, reference: Reference) -> None:
        """Adopt a reference computed elsewhere (e.g. by a pool worker)."""
        self._refs[(self._key(video), scenario)] = reference

    def has(self, video: Video, scenario: Scenario) -> bool:
        """Whether the reference is already materialized in memory."""
        return (self._key(video), scenario) in self._refs

    # -- internals ----------------------------------------------------------

    def _wrap(self, transcoder: Transcoder) -> Transcoder:
        """Route ``transcoder`` through the persistent cache, if attached."""
        if self._cache is None:
            return transcoder
        return self._cache.wrap(transcoder)

    @staticmethod
    def _key(video: Video) -> str:
        if not video.name:
            raise ValueError("reference store needs named videos")
        return f"{video.name}:{video.width}x{video.height}@{video.fps:g}x{len(video)}"

    def _compute(self, video: Video, scenario: Scenario) -> Reference:
        if scenario is Scenario.UPLOAD:
            rate = RateSpec.for_crf(_UPLOAD_CRF)
            result = self._wrap(X264Transcoder("medium")).transcode(video, rate)
            return Reference(result, rate, "x264-medium crf18")

        target = self.target_bitrate(video)
        if scenario is Scenario.LIVE:
            return self._compute_live(video, target)
        if scenario in (Scenario.VOD, Scenario.PLATFORM):
            rate = RateSpec.for_bitrate(target, two_pass=True)
            result = self._wrap(X264Transcoder("medium")).transcode(video, rate)
            return Reference(result, rate, "x264-medium 2-pass")
        if scenario is Scenario.POPULAR:
            rate = RateSpec.for_bitrate(target, two_pass=True)
            result = self._wrap(X264Transcoder("veryslow")).transcode(video, rate)
            return Reference(result, rate, "x264-veryslow 2-pass")
        raise ValueError(f"unknown scenario {scenario!r}")

    def _compute_live(self, video: Video, target: float) -> Reference:
        """Walk the ladder until the encode sustains real time."""
        rate = RateSpec.for_bitrate(target)
        realtime = video.nominal_pixel_rate / 1e6
        last: Optional[Tuple[str, TranscodeResult]] = None
        for label, config in live_ladder():
            result = self._wrap(
                SoftwareTranscoder(f"x264-{label}", config)
            ).transcode(video, rate)
            last = (label, result)
            if result.speed_mpixels >= realtime:
                break
        label, result = last
        return Reference(result, rate, f"x264-{label} 1-pass")
