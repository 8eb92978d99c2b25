"""A content-addressed, disk-persisted transcode cache.

Darwich et al. (PAPERS.md) show that re-using transcode outputs is the
dominant cost lever of a cloud video repository; our harness re-runs the
same deterministic encodes on every invocation.  :class:`TranscodeCache`
makes them persistent:

* **Key** = SHA-256 over the video pixels (all three planes of every
  frame, plus geometry/fps/name), the backend identity and its
  effort/preset knobs, and the :class:`~repro.encoders.base.RateSpec`.
  Two requests share an entry exactly when the encoder would have done
  identical work.
* **Entry** = a single file, written atomically (temp file + rename), so
  concurrent workers on one cache directory never observe torn writes.
  The payload is the reconstructed output's raw planes plus the result
  metadata (modeled seconds, compressed size, kernel counters).
* **Integrity** = every entry is stamped with :data:`CACHE_VERSION` and a
  payload checksum.  A read that finds a bad magic, a stale version, a
  truncated file, a checksum mismatch, or metadata that contradicts the
  source video is treated like an injected fault (the
  :mod:`repro.robust` philosophy: detect by measuring, then recover):
  the entry is evicted, the miss is recorded, and the encode re-runs.

:class:`CachingTranscoder` wraps any backend with the cache (or with the
in-process :class:`MemoStore`) while keeping the plain
:class:`~repro.encoders.base.Transcoder` interface, so the reference
store, the bisection harness, and the transcoding farm all consult the
cache without knowing it exists.  Cache hits return the exact
modeled ``seconds`` of the original encode -- speed ratios and reports
stay byte-identical whether an encode was computed or replayed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.codec.instrumentation import Counters
from repro.codec.presets import EncoderConfig
from repro.encoders.base import RateSpec, Transcoder, TranscodeResult
from repro.video.frame import Frame
from repro.video.video import Video

__all__ = [
    "CACHE_VERSION",
    "CacheCorruptError",
    "CacheStats",
    "CachingTranscoder",
    "MemoStore",
    "TranscodeCache",
    "cache_key",
    "video_digest",
]

#: Entry format version.  Bump whenever the serialized layout or the key
#: material changes; entries stamped with any other version are evicted.
CACHE_VERSION = 1

_MAGIC = b"VBTC"
_HEADER_STRUCT = struct.Struct("<II")  # (version, header_length)


class CacheCorruptError(ValueError):
    """A cache entry failed an integrity check and must be evicted."""


@dataclass
class CacheStats:
    """Hit/miss/byte accounting for one cache (or one run's delta).

    Attributes:
        hits: Lookups answered from disk.
        misses: Lookups that fell through to a real encode.  Every miss
            through :class:`CachingTranscoder` is exactly one encode, so
            this doubles as the encode-count instrumentation.
        stores: Entries written.
        evictions: Corrupt/stale entries deleted on read.
        bytes_read: Entry bytes deserialized on hits.
        bytes_written: Entry bytes persisted on stores.
        seconds_saved: Sum of the modeled encode seconds of every hit --
            the compute the cache avoided.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    seconds_saved: float = 0.0

    @property
    def encodes(self) -> int:
        """Real encodes performed (one per miss)."""
        return self.misses

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def copy(self) -> "CacheStats":
        return dataclasses.replace(self)

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Add ``other``'s counts into this one (returns self)."""
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.evictions += other.evictions
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.seconds_saved += other.seconds_saved
        return self

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The delta from an ``earlier`` snapshot of the same counter set."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            stores=self.stores - earlier.stores,
            evictions=self.evictions - earlier.evictions,
            bytes_read=self.bytes_read - earlier.bytes_read,
            bytes_written=self.bytes_written - earlier.bytes_written,
            seconds_saved=self.seconds_saved - earlier.seconds_saved,
        )

    def to_line(self) -> str:
        """A deterministic one-line rendering for reports."""
        return (
            f"cache: hits={self.hits} misses={self.misses} "
            f"(encodes={self.encodes}) stores={self.stores} "
            f"evictions={self.evictions} read={self.bytes_read}B "
            f"written={self.bytes_written}B saved={self.seconds_saved:.6f}s"
        )


def _remembered(
    owner: object, slot: str, state: object, compute: Callable[[], str]
) -> str:
    """``compute()``, kept on ``owner`` for as long as ``state`` compares equal.

    Key material is expensive to derive and cheap to identify: ``state``
    is everything ``compute`` reads that a caller could still change
    (a video's label, a transcoder's attributes), re-read on every call,
    so a relabelled video or a re-configured transcoder recomputes.
    """
    kept = owner.__dict__.get(slot)
    if kept is None or kept[0] != state:
        kept = owner.__dict__[slot] = (state, compute())
    return kept[1]


def _hash_video(header: str, video: Video) -> str:
    digest = hashlib.sha256(header.encode("utf-8"))
    for frame in video:
        digest.update(frame.y.tobytes())
        digest.update(frame.u.tobytes())
        digest.update(frame.v.tobytes())
    return digest.hexdigest()


def video_digest(video: Video) -> str:
    """SHA-256 of a video's pixels and identity metadata.

    Hashed once per :class:`Video` and identity header: frames cannot be
    swapped and their planes are write-locked, so only ``name`` can change
    under a remembered digest, and it is part of the header.
    """
    header = (
        f"{video.width}x{video.height}@{video.fps!r}x{len(video)}"
        f"|{video.name}|{video.nominal_resolution}"
    )
    return _remembered(
        video, "_video_digest", header, lambda: _hash_video(header, video)
    )


def _transcoder_state(transcoder: Transcoder) -> Tuple[object, ...]:
    """Every attribute that changes what (or how fast) a backend encodes.

    The backend name, the full :class:`EncoderConfig` of software
    backends, the ISA level of the speed model, and the pipeline-model
    parameters of hardware backends.  The name alone is not enough -- two
    transcoders can share a name while carrying derived configs.
    """
    return (
        transcoder.name,
        getattr(transcoder, "config", None),
        getattr(transcoder, "isa", None),
        getattr(transcoder, "frame_overhead_s", None),
        getattr(transcoder, "pixel_throughput", None),
    )


def _transcoder_knobs(transcoder: Transcoder) -> Dict[str, object]:
    """The key material for :func:`_transcoder_state`, as plain values."""
    name, config, isa, frame_overhead_s, pixel_throughput = _transcoder_state(
        transcoder
    )
    knobs: Dict[str, object] = {
        "backend": name,
        "type": type(transcoder).__name__,
    }
    if isinstance(config, EncoderConfig):
        knobs["config"] = dataclasses.asdict(config)
    if isa is not None:
        knobs["isa"] = getattr(isa, "name", str(isa))
    if frame_overhead_s is not None:
        knobs["frame_overhead_s"] = repr(float(frame_overhead_s))
    if pixel_throughput is not None:
        knobs["pixel_throughput"] = repr(float(pixel_throughput))
    return knobs


def _rate_material(rate: RateSpec) -> Dict[str, object]:
    return {
        "kind": rate.kind,
        "crf": rate.crf,
        "bitrate_bps": None if rate.bitrate_bps is None else repr(rate.bitrate_bps),
        "two_pass": rate.two_pass,
    }


def _key_json(material: object) -> str:
    return json.dumps(material, sort_keys=True, separators=(",", ":"))


def cache_key(video: Video, transcoder: Transcoder, rate: RateSpec) -> str:
    """The content address of one transcode request.

    SHA-256 over ``_key_json`` of ``{"knobs", "rate", "version",
    "video"}``; the blob is assembled from its (sorted) members so the
    knobs are rendered once per transcoder state, not once per request.
    """
    knobs = _remembered(
        transcoder,
        "_key_knobs",
        _transcoder_state(transcoder),
        lambda: _key_json(_transcoder_knobs(transcoder)),
    )
    blob = (
        f'{{"knobs":{knobs},"rate":{_key_json(_rate_material(rate))},'
        f'"version":{CACHE_VERSION},"video":"{video_digest(video)}"}}'
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Entry serialization
# ---------------------------------------------------------------------------


def _serialize(result: TranscodeResult) -> bytes:
    output = result.output
    planes = bytearray()
    for frame in output:
        planes += frame.y.tobytes()
        planes += frame.u.tobytes()
        planes += frame.v.tobytes()
    payload = bytes(planes)
    header = {
        "backend": result.backend,
        "compressed_bytes": result.compressed_bytes,
        "seconds": result.seconds,
        # A replayed result spent no wall time, and the encode's own reading
        # would make two stores of one request differ byte for byte.
        "wall_seconds": 0.0,
        "counters": result.counters.as_dict(),
        "width": output.width,
        "height": output.height,
        "frames": len(output),
        "fps": output.fps,
        "name": output.name,
        "nominal": list(output.nominal_resolution),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    return _MAGIC + _HEADER_STRUCT.pack(CACHE_VERSION, len(head)) + head + payload


def _deserialize(blob: bytes, source: Video) -> TranscodeResult:
    """Rebuild a result, raising :class:`CacheCorruptError` on any anomaly."""
    prefix = len(_MAGIC) + _HEADER_STRUCT.size
    if len(blob) < prefix or blob[: len(_MAGIC)] != _MAGIC:
        raise CacheCorruptError("bad magic")
    version, head_len = _HEADER_STRUCT.unpack_from(blob, len(_MAGIC))
    if version != CACHE_VERSION:
        raise CacheCorruptError(
            f"entry version {version} != cache version {CACHE_VERSION}"
        )
    if len(blob) < prefix + head_len:
        raise CacheCorruptError("truncated header")
    try:
        header = json.loads(blob[prefix : prefix + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CacheCorruptError(f"unreadable header: {error}") from None
    payload = blob[prefix + head_len :]
    try:
        width = int(header["width"])
        height = int(header["height"])
        frames = int(header["frames"])
        fps = float(header["fps"])
        checksum = header["payload_sha256"]
        compressed_bytes = int(header["compressed_bytes"])
        seconds = float(header["seconds"])
        wall_seconds = float(header["wall_seconds"])
        counter_dict = dict(header["counters"])
        nominal = tuple(header["nominal"])
    except (KeyError, TypeError, ValueError) as error:
        raise CacheCorruptError(f"malformed header: {error}") from None
    if hashlib.sha256(payload).hexdigest() != checksum:
        raise CacheCorruptError("payload checksum mismatch")
    if (width, height) != source.resolution or frames != len(source):
        raise CacheCorruptError(
            f"entry geometry {width}x{height}x{frames} does not match "
            f"source {source.resolution[0]}x{source.resolution[1]}x{len(source)}"
        )
    if compressed_bytes < 0 or seconds < 0 or wall_seconds < 0:
        raise CacheCorruptError("negative size or timing")
    luma = width * height
    chroma = (width // 2) * (height // 2)
    per_frame = luma + 2 * chroma
    if len(payload) != frames * per_frame:
        raise CacheCorruptError(
            f"payload is {len(payload)} bytes, expected {frames * per_frame}"
        )
    counters = Counters()
    try:
        for kernel, units in counter_dict.items():
            counters.add(kernel, float(units))
    except (TypeError, ValueError) as error:
        raise CacheCorruptError(f"bad counters: {error}") from None
    rebuilt = []
    offset = 0
    for _ in range(frames):
        y = np.frombuffer(blob, np.uint8, luma, prefix + head_len + offset)
        offset += luma
        u = np.frombuffer(blob, np.uint8, chroma, prefix + head_len + offset)
        offset += chroma
        v = np.frombuffer(blob, np.uint8, chroma, prefix + head_len + offset)
        offset += chroma
        rebuilt.append(
            Frame(
                y.reshape(height, width),
                u.reshape(height // 2, width // 2),
                v.reshape(height // 2, width // 2),
            )
        )
    output = Video(
        rebuilt, fps, name=str(header.get("name", "")), nominal_resolution=nominal
    )
    return TranscodeResult(
        source=source,
        output=output,
        compressed_bytes=compressed_bytes,
        seconds=seconds,
        wall_seconds=wall_seconds,
        counters=counters,
        backend=str(header["backend"]),
    )


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------


class TranscodeCache:
    """Disk-persisted transcode results, shared across processes and runs.

    Args:
        root: Directory to persist entries under (created on demand).
            Entries are sharded by the first two hex digits of their key.
        stats: Optional pre-existing stats object to accumulate into.
    """

    def __init__(
        self, root: Union[str, os.PathLike], stats: Optional[CacheStats] = None
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = stats if stats is not None else CacheStats()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.vbt"

    def key_for(self, video: Video, transcoder: Transcoder, rate: RateSpec) -> str:
        return cache_key(video, transcoder, rate)

    def load(self, key: str, source: Video) -> Optional[TranscodeResult]:
        """The cached result for ``key``, or ``None`` on miss.

        ``source`` is re-attached as the result's input video (sources are
        never persisted -- the caller always holds them) and doubles as an
        integrity cross-check on the entry's geometry.
        """
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            result = _deserialize(blob, source)
        except CacheCorruptError:
            # The fault-tolerance idiom of repro.robust: a corrupt artifact
            # is detected by measuring, evicted, and recomputed -- never
            # propagated.
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent eviction
                pass
            self.stats.evictions += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.stats.bytes_read += len(blob)
        self.stats.seconds_saved += result.seconds
        return result

    def store(self, key: str, result: TranscodeResult) -> None:
        """Persist ``result`` under ``key`` (atomic: temp file + rename)."""
        blob = _serialize(result)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{key}.{os.getpid()}.tmp"
        tmp.write_bytes(blob)
        os.replace(tmp, path)
        self.stats.stores += 1
        self.stats.bytes_written += len(blob)

    def wrap(self, transcoder: Transcoder) -> "CachingTranscoder":
        """``transcoder`` with this cache in front (idempotent)."""
        if isinstance(transcoder, CachingTranscoder) and transcoder.store is self:
            return transcoder
        return CachingTranscoder(transcoder, self)

    def entry_count(self) -> int:
        """Number of entries currently on disk."""
        return sum(1 for _ in self.root.glob("*/*.vbt"))

    def __repr__(self) -> str:
        return f"TranscodeCache(root={str(self.root)!r})"


class MemoStore:
    """The in-process keyed store: same request, same result, no disk.

    The traffic simulator replays the same small catalog of titles
    thousands of times; re-encoding an identical request every arrival
    would make simulated hours cost real hours.  Results are values
    (:class:`~repro.encoders.base.TranscodeResult` is frozen), so the
    stored object itself is handed back on every hit.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, TranscodeResult] = {}

    def load(self, key: str, source: Video) -> Optional[TranscodeResult]:
        return self._entries.get(key)

    def store(self, key: str, result: TranscodeResult) -> None:
        self._entries[key] = result


class CachingTranscoder(Transcoder):
    """A backend that consults a keyed store before encoding.

    ``store`` is a :class:`TranscodeCache` (disk) or a :class:`MemoStore`
    (in-process); both answer ``load(key, source)`` / ``store(key,
    result)`` under the :func:`cache_key` content address, so two requests
    share an entry exactly when the encoder would have done identical
    work.  Transparent to callers: ``name`` mirrors the wrapped backend
    and a replayed result carries the original modeled ``seconds``, so
    scores and reports are byte-identical with or without the store.
    """

    def __init__(
        self, inner: Transcoder, store: Union[TranscodeCache, MemoStore]
    ) -> None:
        self.inner = inner
        self.store = store
        self.name = inner.name

    def transcode(self, video: Video, rate: RateSpec) -> TranscodeResult:
        key = cache_key(video, self.inner, rate)
        result = self.store.load(key, video)
        if result is None:
            result = self.inner.transcode(video, rate)
            self.store.store(key, result)
        return result

    def __repr__(self) -> str:
        return f"CachingTranscoder(inner={self.inner!r}, store={self.store!r})"
