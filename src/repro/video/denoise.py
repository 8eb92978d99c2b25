"""Denoising prefilter: trading grain for compressibility.

Section 2.1 of the paper lists denoising among the optional encoder-side
operations "applied to increase video compressability by reducing high
frequency components" (citing Kokaram et al.).  This module implements a
motion-safe spatio-temporal filter:

* spatial: a light Gaussian on each plane (kills sensor grain);
* temporal: blend each frame toward its predecessor only where the pixel
  difference is small (static areas), so real motion is never smeared.

The filter is encoder-side only — it changes the *input*, not the
bitstream format — which is exactly how production transcoding pipelines
deploy it.
"""

from __future__ import annotations

import numpy as np

from repro.video.filters import gaussian_blur
from repro.video.frame import Frame
from repro.video.video import Video

__all__ = ["denoise_video"]


def denoise_plane(
    plane: np.ndarray,
    previous: "np.ndarray | None",
    spatial_sigma: float,
    temporal_strength: float,
    motion_threshold: float,
) -> np.ndarray:
    """Filter one plane; ``previous`` is the already-filtered predecessor."""
    out = np.asarray(plane, dtype=np.float64)
    if spatial_sigma > 0:
        out = gaussian_blur(out, spatial_sigma)
    if previous is not None and temporal_strength > 0:
        prev = np.asarray(previous, dtype=np.float64)
        if prev.shape != out.shape:
            raise ValueError(
                f"plane shape changed between frames: {prev.shape} vs {out.shape}"
            )
        static = np.abs(out - prev) < motion_threshold
        blended = (1.0 - temporal_strength) * out + temporal_strength * prev
        out = np.where(static, blended, out)
    return out


def denoise_video(
    video: Video,
    spatial_sigma: float = 0.6,
    temporal_strength: float = 0.5,
    motion_threshold: float = 6.0,
) -> Video:
    """Denoise a clip ahead of encoding.

    Args:
        video: Input clip.
        spatial_sigma: Gaussian sigma in pixels (0 disables the spatial
            stage).
        temporal_strength: Blend weight toward the previous filtered frame
            on static pixels, in [0, 1) (0 disables the temporal stage).
        motion_threshold: Luma difference above which a pixel is treated
            as moving and left untouched by the temporal stage.

    Returns:
        A new :class:`Video` with the same geometry and timing.
    """
    if spatial_sigma < 0:
        raise ValueError(f"spatial_sigma must be >= 0, got {spatial_sigma}")
    if not 0.0 <= temporal_strength < 1.0:
        raise ValueError(
            f"temporal_strength must be in [0, 1), got {temporal_strength}"
        )
    if motion_threshold <= 0:
        raise ValueError(
            f"motion_threshold must be positive, got {motion_threshold}"
        )
    frames = []
    prev_planes = (None, None, None)
    for frame in video:
        planes = []
        for plane, prev in zip(frame.planes(), prev_planes):
            planes.append(
                denoise_plane(
                    plane, prev, spatial_sigma, temporal_strength,
                    motion_threshold,
                )
            )
        prev_planes = tuple(planes)
        frames.append(Frame.from_planes(*planes))
    return Video(
        frames, video.fps, name=video.name,
        nominal_resolution=video.nominal_resolution,
    )
