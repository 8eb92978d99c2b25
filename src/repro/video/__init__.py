"""Raw video substrate: frames, synthesis, I/O, entropy.

Everything in :mod:`repro` operates on planar YUV 4:2:0 video, the format
used throughout commercial video sharing infrastructures (Section 2.1 of the
paper).  :class:`~repro.video.frame.Frame` holds one picture as three numpy
planes; :class:`~repro.video.video.Video` is an immutable sequence of frames
plus timing metadata.
"""

from repro.video.denoise import denoise_video
from repro.video.frame import Frame
from repro.video.video import Video

__all__ = ["Frame", "Video", "denoise_video"]
