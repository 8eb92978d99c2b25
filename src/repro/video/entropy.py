"""The paper's entropy measure: bits/pixel/second at constant quality.

Section 4.1: "we use bits/pixel/second when encoded using libx264 at
visually lossless quality (Constant Rate Factor CRF 18) as a measure for
video entropy" -- when an encoder is told to sustain a fixed quality it
spends exactly as many bits as the content demands, so the resulting
normalized bitrate reflects the video's inherent information content.

We measure with our x264-class encoder at the same CRF-18 operating
point, over the *steady-state* frames: the paper's clips are 5 seconds
long, so the one-time intra-refresh cost of the first frame is noise
there; our reduced-scale stand-ins are ~1 second, where it would dominate,
so the measure excludes the leading I frame (documented in DESIGN.md).

(Imports are deferred to avoid a package cycle: ``codec`` depends on
``video``.)
"""

from __future__ import annotations

from typing import Sequence

from repro.video.video import Video

__all__ = ["measure_entropy", "steady_state_bpps"]

#: CRF 18 is the "visually lossless" constant-quality point (Section 4.1).
ENTROPY_CRF = 18


def steady_state_bpps(stats: Sequence, video: Video) -> float:
    """Bits/pixel/second of an encode of ``video``, leading I frame skipped.

    ``stats`` are the encode's per-frame
    :class:`~repro.codec.types.FrameStats`.  A single-frame encode has
    no steady state, so it is measured whole.
    """
    if len(stats) > 1:
        bits = sum(s.bits for s in stats[1:])
        seconds = (len(stats) - 1) / video.fps
    else:
        bits = sum(s.bits for s in stats)
        seconds = video.duration
    return bits / seconds / video.frame_pixels


def measure_entropy(video: Video, preset: str = "medium") -> float:
    """Entropy of ``video`` in bits/pixel/second (steady-state CRF-18 rate)."""
    from repro.codec.encoder import encode

    result = encode(video, config=preset, crf=ENTROPY_CRF)
    return steady_state_bpps(result.stats, video)
