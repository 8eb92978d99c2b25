"""Execution layer: the persistent transcode cache.

The benchmark's hot loop -- re-encoding every suite video per scenario,
with up to seven bisection encodes each -- is almost entirely
recomputation: the same deterministic encodes, run again.
:mod:`repro.exec.cache` is a content-addressed, disk-persisted transcode
cache (:class:`TranscodeCache`).  Keys hash the video pixels, the backend
identity and effort knobs, and the rate specification, so a cache hit is
exactly the encode that would have run.  Entries are version-stamped and
checksummed; anything corrupt is evicted on read.

``repro.exec`` has no dependencies on :mod:`repro.core`, so the core
layers (including ``run_scenario``'s process-pool fan-out) accept a cache
object without import cycles.
"""

from repro.exec.cache import (
    CACHE_VERSION,
    CacheCorruptError,
    CacheStats,
    CachingTranscoder,
    MemoStore,
    TranscodeCache,
    cache_key,
    video_digest,
)

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
