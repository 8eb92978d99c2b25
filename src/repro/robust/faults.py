"""Seeded fault injection around any :class:`~repro.encoders.base.Transcoder`.

A real transcoding farm sees five failure shapes (Li et al., "Cost-Efficient
and Robust On-Demand Video Stream Transcoding Using Heterogeneous Cloud
Services"; see PAPERS.md):

* **transient crashes** — the worker process dies mid-transcode, wasting
  the compute already spent;
* **stragglers** — the transcode completes but takes a large multiple of
  its nominal time (noisy neighbours, thermal throttling, spot-instance
  contention);
* **corrupted outputs** — the transcode "succeeds" but the bitstream is
  garbage; only a quality check catches it;
* **corrupted streams** — bits of the output bitstream flip in storage or
  transit; the resilient container localizes the damage and the decoder
  conceals the affected frames, so quality degrades instead of vanishing;
* **permanent outages** — a backend (an encoder fleet, a GPU pool) goes
  away and every call fails fast until an operator intervenes.

:class:`FaultyTranscoder` wraps a backend and injects all five from a
seeded RNG, so a chaos experiment is exactly reproducible.  Corruption is
physical, not flagged: the output video's luma is inverted (or its
re-encoded bitstream's bits really are flipped and re-decoded), so the
caller's ``quality_db`` really does collapse and detection has to happen
the way production detects it — by measuring.

This module injects faults per transcode *call*; its fleet-level
counterpart is :mod:`repro.traffic.fleet`, where whole workers crash,
straggle, get preempted, or die in correlated outages under the traffic
simulator — same seeded-substream idiom, one level up the stack.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace
from typing import FrozenSet, Optional

import numpy as np

from repro.encoders.base import RateSpec, Transcoder, TranscodeResult
from repro.video.frame import Frame
from repro.video.video import Video

__all__ = [
    "BackendOutage",
    "FaultCounts",
    "FaultError",
    "FaultPlan",
    "FaultyTranscoder",
    "TransientFault",
]


class FaultError(RuntimeError):
    """Base class for injected transcoding failures.

    Attributes:
        backend: Key of the backend the fault was injected on.
    """

    def __init__(self, message: str, backend: str) -> None:
        super().__init__(message)
        self.backend = backend


class TransientFault(FaultError):
    """The worker crashed mid-transcode; a retry may well succeed.

    Attributes:
        wasted_seconds: Simulated compute spent before the crash — the
            farm books it as wasted compute.
    """

    def __init__(self, message: str, backend: str, wasted_seconds: float) -> None:
        super().__init__(message, backend)
        self.wasted_seconds = wasted_seconds


class BackendOutage(FaultError):
    """The backend is gone; every call fails fast until it comes back."""


@dataclass(frozen=True)
class FaultPlan:
    """What to inject, how often, from which seed.

    The four rates are drawn from a single uniform per call, so their sum
    must stay at or below 1.  ``dead_backends`` holds backend *keys* (the
    registry specs the farm wraps, e.g. ``"x264:veryslow"``); a dead
    backend raises :class:`BackendOutage` on every call.

    Attributes:
        seed: Root seed; each wrapped backend derives its own independent
            stream from it, so adding a backend does not perturb the
            others' draws.
        crash_rate: Probability a call dies with a :class:`TransientFault`.
        straggler_rate: Probability a call's ``seconds`` are multiplied by
            ``straggler_factor``.
        corrupt_rate: Probability a call returns a corrupted output.
        corrupt_stream_rate: Probability a call's output is round-tripped
            through the repro codec with seeded bit flips in the payload —
            the decoder conceals the damaged frames, so the output is
            degraded rather than destroyed.
        straggler_factor: Slowdown multiple for straggler calls.
        crash_waste: Fraction of the transcode's compute spent before a
            crash (booked as wasted).
        dead_backends: Backend keys that are permanently down.
    """

    seed: int = 0
    crash_rate: float = 0.0
    straggler_rate: float = 0.0
    corrupt_rate: float = 0.0
    corrupt_stream_rate: float = 0.0
    straggler_factor: float = 20.0
    crash_waste: float = 0.5
    dead_backends: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        for name in (
            "crash_rate",
            "straggler_rate",
            "corrupt_rate",
            "corrupt_stream_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        total = (
            self.crash_rate
            + self.straggler_rate
            + self.corrupt_rate
            + self.corrupt_stream_rate
        )
        if total > 1.0:
            raise ValueError(f"fault rates must sum to <= 1, got {total}")
        if not math.isfinite(self.straggler_factor) or self.straggler_factor < 1.0:
            raise ValueError(
                "straggler factor must be finite and >= 1, got "
                f"{self.straggler_factor}"
            )
        if not 0.0 <= self.crash_waste <= 1.0:
            raise ValueError(f"crash_waste must be in [0, 1], got {self.crash_waste}")
        object.__setattr__(self, "dead_backends", frozenset(self.dead_backends))

    def rng_for(self, key: str) -> np.random.Generator:
        """A deterministic, backend-independent RNG stream for ``key``."""
        return np.random.default_rng(
            (self.seed, zlib.crc32(key.encode("utf-8")))
        )

    def is_dead(self, key: str) -> bool:
        return key in self.dead_backends


def _corrupt_stream(
    video: Video, rng: np.random.Generator
) -> "tuple[Video, int, int]":
    """Corrupt a video *through its bitstream*: encode, flip bits, decode.

    Unlike :func:`_corrupt`, this exercises the error-resilience path: the
    repro codec's v2 container localizes the flipped bits to individual
    frame packets and the decoder conceals just those frames.  Returns
    ``(decoded video, frames concealed, total frames)``.  Bit positions
    land beyond the container header so the stream stays parseable — a
    destroyed header is the ``corrupt_rate`` failure shape, not this one.
    """
    from repro.codec.bitstream import header_byte_length
    from repro.codec.decoder import Decoder
    from repro.codec.encoder import encode
    from repro.codec.presets import preset

    encoded = encode(video, preset("ultrafast"), crf=18)
    data = bytearray(encoded.bitstream)
    header_len = header_byte_length(bytes(data[:16]))
    n_flips = max(1, len(data) // 2048)
    for _ in range(n_flips):
        pos = int(rng.integers(header_len, len(data)))
        data[pos] ^= 1 << int(rng.integers(0, 8))
    result = Decoder().decode(bytes(data), name=video.name, strict=False)
    decoded = Video(
        result.video.frames,
        video.fps,
        name=video.name,
        nominal_resolution=video.nominal_resolution,
    )
    return decoded, result.frames_concealed, len(result.concealed)


def _corrupt(video: Video) -> Video:
    """Physically corrupt a video: wreck all three planes.

    Luma is inverted and chroma is shifted by 128 (mod 256), so every
    plane's PSNR collapses to single digits — near-neutral chroma would
    survive plain inversion (255 - 128 ~ 128), and the quality metric
    averages plane PSNRs, so one intact plane could mask the damage.
    Deterministic by construction: no RNG draws.
    """
    frames = [
        Frame(
            y=np.clip(255 - f.y.astype(np.int16), 0, 255).astype(np.uint8),
            u=((f.u.astype(np.int16) + 128) % 256).astype(np.uint8),
            v=((f.v.astype(np.int16) + 128) % 256).astype(np.uint8),
        )
        for f in video.frames
    ]
    return Video(
        frames,
        video.fps,
        name=video.name,
        nominal_resolution=video.nominal_resolution,
    )


@dataclass
class FaultCounts:
    """How many of each fault a :class:`FaultyTranscoder` has injected."""

    crashes: int = 0
    stragglers: int = 0
    corruptions: int = 0
    stream_corruptions: int = 0
    #: Frames the decoder had to conceal across all stream corruptions.
    stream_corrupted_frames: int = 0
    #: Frames decoded (concealed or not) across all stream corruptions.
    stream_frames_seen: int = 0
    outages: int = 0

    def total(self) -> int:
        return (
            self.crashes
            + self.stragglers
            + self.corruptions
            + self.stream_corruptions
            + self.outages
        )


class FaultyTranscoder(Transcoder):
    """Inject the plan's faults around ``inner``.

    A straggler or corrupted call returns a result *derived* from the
    inner one (``dataclasses.replace`` with the stretched ``seconds`` or
    the damaged ``output``); the inner result is never touched, so a memo
    further down the stack can hand the same object to every caller.

    Args:
        inner: The real backend.
        plan: The fault plan.
        key: Stable identity for RNG derivation and ``dead_backends``
            matching; defaults to ``inner.name``.  The farm passes the
            registry spec (e.g. ``"x264:veryslow"``) so plans are written
            in the same vocabulary as the CLI.
    """

    def __init__(
        self, inner: Transcoder, plan: FaultPlan, key: Optional[str] = None
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.key = key if key is not None else inner.name
        self.name = inner.name
        self._rng = plan.rng_for(self.key)
        self.injected = FaultCounts()

    def transcode(self, video: Video, rate: RateSpec) -> TranscodeResult:
        if self.plan.is_dead(self.key):
            self.injected.outages += 1
            raise BackendOutage(
                f"backend {self.key!r} is down (permanent outage)", self.key
            )
        draw = float(self._rng.random())
        result = self.inner.transcode(video, rate)
        if draw < self.plan.crash_rate:
            self.injected.crashes += 1
            wasted = result.seconds * self.plan.crash_waste
            raise TransientFault(
                f"backend {self.key!r} crashed mid-transcode of "
                f"{video.name!r} ({wasted:.6f}s wasted)",
                self.key,
                wasted_seconds=wasted,
            )
        if draw < self.plan.crash_rate + self.plan.straggler_rate:
            self.injected.stragglers += 1
            return replace(
                result, seconds=result.seconds * self.plan.straggler_factor
            )
        if draw < (
            self.plan.crash_rate + self.plan.straggler_rate + self.plan.corrupt_rate
        ):
            self.injected.corruptions += 1
            return replace(result, output=_corrupt(result.output))
        if draw < (
            self.plan.crash_rate
            + self.plan.straggler_rate
            + self.plan.corrupt_rate
            + self.plan.corrupt_stream_rate
        ):
            self.injected.stream_corruptions += 1
            damaged, concealed, seen = _corrupt_stream(result.output, self._rng)
            self.injected.stream_corrupted_frames += concealed
            self.injected.stream_frames_seen += seen
            return replace(result, output=damaged)
        return result

    def __repr__(self) -> str:
        return f"FaultyTranscoder(key={self.key!r}, inner={self.inner!r})"
