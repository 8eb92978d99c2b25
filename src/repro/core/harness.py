"""Candidate-side harness: driving a backend into a scenario's regime.

The paper's hardware results (Tables 3/4) are produced by "var[ying] the
target bitrate using a bisection algorithm until results satisfy the
quality constraints by a small margin".  :func:`bisect_to_quality` is that
algorithm; :func:`candidate_for_scenario` packages the per-scenario recipe
for any backend:

* Upload: the candidate encodes at constant quality, like the reference.
* Live: single pass at the reference bitrate target (then the real-time
  constraint does the judging).
* VOD / Popular: bisection on the bitrate target until the candidate's
  quality matches the reference's within a small margin from above.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.encoders.base import RateSpec, Transcoder, TranscodeResult
from repro.encoders.hardware import is_hardware
from repro.video.video import Video

from repro.core.reference import ReferenceStore
from repro.core.scenarios import Scenario

__all__ = ["bisect_to_quality", "candidate_for_scenario"]

_UPLOAD_CRF = 18


def bisect_to_quality(
    transcoder: Transcoder,
    video: Video,
    target_db: float,
    initial_bitrate: float,
    two_pass: bool = False,
    iterations: int = 7,
    margin_db: float = -0.01,
) -> TranscodeResult:
    """Find the smallest bitrate whose transcode meets ``target_db``.

    Exponentially brackets the target from ``initial_bitrate``, then
    bisects.  Returns the cheapest encode observed that satisfies
    ``quality >= target_db - margin_db`` -- the default negative margin
    means the result beats the target "by a small margin", exactly how
    the paper drives its GPU bisections -- or
    the highest-quality attempt if none satisfied it -- the caller's
    constraint check will then fail the video, which is itself a result
    (it is how Section 6.2 concludes GPUs produce no valid Popular
    transcodes).
    """
    if not math.isfinite(initial_bitrate) or initial_bitrate <= 0:
        raise ValueError(
            f"initial bitrate must be positive and finite, got {initial_bitrate}"
        )
    if iterations < 1:
        raise ValueError(f"need at least one iteration, got {iterations}")

    def run(bitrate: float) -> TranscodeResult:
        return transcoder.transcode(
            video, RateSpec.for_bitrate(bitrate, two_pass=two_pass)
        )

    lo = hi = initial_bitrate
    result = run(initial_bitrate)
    best: Optional[TranscodeResult] = None
    attempts = 1
    if result.quality_db >= target_db - margin_db:
        best = result
        # Bracket downward: find a bitrate that fails.
        while attempts < iterations:
            lo /= 2.0
            result = run(lo)
            attempts += 1
            if result.quality_db < target_db - margin_db:
                # lo failed, so the last *passing* bitrate -- 2 * lo -- is
                # the tight upper bracket.  Leaving hi at initial_bitrate
                # would spend bisection iterations re-exploring an
                # interval every point of which is already known to pass.
                hi = 2.0 * lo
                break
            if result.compressed_bytes < best.compressed_bytes:
                best = result
        else:
            return best
        assert lo < hi <= initial_bitrate, (
            f"downward bracket must satisfy lo < hi <= initial "
            f"(lo={lo}, hi={hi}, initial={initial_bitrate})"
        )
    else:
        # Bracket upward: find a bitrate that passes.
        while attempts < iterations:
            hi *= 2.0
            result = run(hi)
            attempts += 1
            if result.quality_db >= target_db - margin_db:
                best = result
                break
        if best is None:
            return result  # never reached the target; report the best try
    # Bisect between failing lo and passing hi.
    while attempts < iterations:
        mid = (lo + hi) / 2.0
        result = run(mid)
        attempts += 1
        if result.quality_db >= target_db - margin_db:
            hi = mid
            if result.compressed_bytes < best.compressed_bytes:
                best = result
        else:
            lo = mid
    return best


def candidate_for_scenario(
    transcoder: Transcoder,
    video: Video,
    scenario: Scenario,
    refs: ReferenceStore,
    bisect_iterations: int = 7,
) -> TranscodeResult:
    """Run ``transcoder`` on ``video`` the way the scenario demands.

    A cache attached to ``refs`` routes every candidate encode --
    including each bisection probe -- through the persistent transcode
    cache.
    """
    if refs.cache is not None:
        transcoder = refs.cache.wrap(transcoder)
    reference = refs.reference(video, scenario)
    if scenario is Scenario.UPLOAD:
        return transcoder.transcode(video, RateSpec.for_crf(_UPLOAD_CRF))
    if scenario is Scenario.LIVE:
        # Single pass at the reference bitrate; hold reference quality
        # (the configuration the paper chose for its Live GPU study).
        return transcoder.transcode(
            video, RateSpec.for_bitrate(reference.rate.bitrate_bps)
        )
    if scenario in (Scenario.VOD, Scenario.POPULAR):
        two_pass = not is_hardware(transcoder)
        return bisect_to_quality(
            transcoder,
            video,
            target_db=reference.result.quality_db,
            initial_bitrate=reference.rate.bitrate_bps,
            two_pass=two_pass,
            iterations=bisect_iterations,
        )
    if scenario is Scenario.PLATFORM:
        raise ValueError(
            "the Platform scenario compares machines, not encoders; use "
            "repro.core.benchmark.run_platform"
        )
    raise ValueError(f"unknown scenario {scenario!r}")
