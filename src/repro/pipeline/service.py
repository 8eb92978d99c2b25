"""Sharing-service policy and catalog records (Section 2.5, Figure 3).

Every uploaded video flows through:

1. **Universal transcode** -- normalize the arbitrary upload into the
   intermediate format (single pass, constant quality -- the Upload
   scenario's operating point).
2. **Delivery transcode** -- live (single pass, real-time) or VOD
   (two-pass) into the delivery copy; every upload must be playable.
3. **Popular re-transcode** -- once a video's observed views cross the
   popularity threshold, a high-effort encoder produces a smaller,
   equal-or-better copy; the compute is amortized over the remaining
   views and the egress savings are multiplied by them.

:class:`~repro.pipeline.farm.TranscodeFarm` runs that flow; this module
holds its policy knobs and the per-video state it keeps in its catalog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.video.video import Video

__all__ = ["ServiceConfig", "VideoRecord"]


@dataclass(frozen=True)
class ServiceConfig:
    """Service policy knobs.

    Attributes:
        upload_crf: Constant-quality point of the universal transcode.
        vod_bitrate_scale: Delivery bitrate as a fraction of the
            universal copy's bitrate.
        popular_threshold_views: Views after which a video earns the
            high-effort re-transcode.
        retention_months: Billing horizon for storage.
    """

    upload_crf: int = 18
    vod_bitrate_scale: float = 0.6
    popular_threshold_views: int = 1000
    retention_months: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.vod_bitrate_scale <= 1.0:
            raise ValueError("vod_bitrate_scale must be in (0, 1]")
        if self.popular_threshold_views < 1:
            raise ValueError("popularity threshold must be >= 1")
        if not math.isfinite(self.retention_months) or self.retention_months <= 0:
            raise ValueError(
                f"retention must be finite and positive, got {self.retention_months}"
            )


@dataclass
class VideoRecord:
    """Service-side state of one hosted video."""

    name: str
    video: Video
    delivery_bytes: int = 0
    views: int = 0
    popular: bool = False
    egress_bytes: float = 0.0
