"""Execution layer: parallel suite runs and the persistent transcode cache.

The benchmark's hot loop -- re-encoding every suite video per scenario,
with up to seven bisection encodes each -- is embarrassingly parallel
across videos and almost entirely recomputation: the same deterministic
encodes, run again.  This package attacks both:

* :mod:`repro.exec.cache` -- a content-addressed, disk-persisted
  transcode cache (:class:`TranscodeCache`).  Keys hash the video pixels,
  the backend identity and effort knobs, and the rate specification, so a
  cache hit is exactly the encode that would have run.  Entries are
  version-stamped and checksummed; anything corrupt is evicted on read.
* :mod:`repro.exec.runner` -- a process-pool runner that fans
  ``run_scenario`` and reference generation out across suite videos with
  deterministic per-task seeding and ordered result collection.  Serial
  and parallel paths produce byte-identical reports.

``repro.exec.cache`` has no dependencies on :mod:`repro.core`, so the
core layers accept a cache object without import cycles; the runner sits
above the core and may import it freely.
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
from repro.exec.runner import (
    prime_references,
    run_scenario_parallel,
    task_seed,
)

__all__ = [
    "CACHE_VERSION",
    "CacheCorruptError",
    "CacheStats",
    "CachingTranscoder",
    "MemoStore",
    "TranscodeCache",
    "cache_key",
    "prime_references",
    "run_scenario_parallel",
    "task_seed",
    "video_digest",
]
