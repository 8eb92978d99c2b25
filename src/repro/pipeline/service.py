"""The sharing-service pipeline: Figure 3 as an executable simulation.

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

The simulation runs on real transcodes of (stand-in) clips and real
popularity draws, and books every byte and second into a
:class:`~repro.pipeline.costs.CostReport` -- so "GPUs shift cost from
compute to storage and network" is something you can measure here, not
just read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.corpus.popularity import PopularityModel
from repro.encoders.base import RateSpec, Transcoder
from repro.encoders.hardware import is_hardware
from repro.encoders.registry import get_transcoder
from repro.pipeline.costs import CostModel, CostReport
from repro.video.video import Video

__all__ = ["ServiceConfig", "VideoRecord", "SharingService"]


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


class SharingService:
    """A video sharing service built on pluggable transcoder backends.

    Args:
        delivery_backend: Transcoder for the live/VOD pass (name or
            instance).
        popular_backend: Transcoder for the Popular pass.
        config: Policy knobs.
        cost_model: Unit prices.
    """

    def __init__(
        self,
        delivery_backend: "str | Transcoder" = "x264:medium",
        popular_backend: "str | Transcoder" = "x264:veryslow",
        config: Optional[ServiceConfig] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.delivery = (
            get_transcoder(delivery_backend)
            if isinstance(delivery_backend, str)
            else delivery_backend
        )
        self.popular = (
            get_transcoder(popular_backend)
            if isinstance(popular_backend, str)
            else popular_backend
        )
        self.config = config or ServiceConfig()
        self.costs = CostReport(model=cost_model or CostModel())
        self.catalog: Dict[str, VideoRecord] = {}

    # -- ingest ---------------------------------------------------------------

    def upload(self, video: Video, live: bool = False) -> VideoRecord:
        """Ingest one video: universal transcode, then delivery transcode.

        ``live`` selects single-pass low-latency delivery; otherwise the
        VOD two-pass path runs.
        """
        if not video.name:
            raise ValueError("uploads must be named")
        if video.name in self.catalog:
            raise ValueError(f"duplicate upload {video.name!r}")
        cfg = self.config
        universal = self.delivery.transcode(video, RateSpec.for_crf(cfg.upload_crf))
        self.costs.add_compute(universal.seconds)
        target = max(universal.bitrate * cfg.vod_bitrate_scale, 1000.0)
        two_pass = not live and not is_hardware(self.delivery)
        delivery = self.delivery.transcode(
            universal.output, RateSpec.for_bitrate(target, two_pass=two_pass)
        )
        self.costs.add_compute(delivery.seconds)
        self.costs.add_storage(
            delivery.compressed_bytes, months=cfg.retention_months
        )
        record = VideoRecord(
            name=video.name,
            video=universal.output,
            delivery_bytes=delivery.compressed_bytes,
        )
        self.catalog[video.name] = record
        return record

    # -- viewing --------------------------------------------------------------

    def serve_views(self, views_by_name: Dict[str, int]) -> List[str]:
        """Serve playbacks; returns names newly promoted to popular.

        Each view egresses the delivery copy.  Crossing the popularity
        threshold triggers the high-effort re-transcode: smaller bytes for
        every later view, storage for one more replica, compute once.

        The batch is validated up front: a negative count or unknown name
        rejects the whole request before any record is mutated or any cost
        is booked, so a bad entry cannot leave the catalog half-updated.
        """
        for name, views in views_by_name.items():
            if views < 0:
                raise ValueError(f"negative views for {name!r}")
            if name not in self.catalog:
                raise KeyError(f"unknown video {name!r}")
        promoted: List[str] = []
        for name, views in views_by_name.items():
            record = self.catalog[name]
            record.views += views
            egress = views * record.delivery_bytes
            record.egress_bytes += egress
            self.costs.add_egress(egress)
            if (
                not record.popular
                and record.views >= self.config.popular_threshold_views
            ):
                self._promote(record)
                promoted.append(name)
        return promoted

    def _promote(self, record: VideoRecord) -> None:
        """Run the Popular re-transcode for a newly hot video."""
        target = max(
            record.delivery_bytes * 8.0 / record.video.duration * 0.9, 1000.0
        )
        result = self.popular.transcode(
            record.video,
            RateSpec.for_bitrate(
                target,
                two_pass=not is_hardware(self.popular),
            ),
        )
        self.costs.add_compute(result.seconds)
        self.costs.add_storage(
            result.compressed_bytes, months=self.config.retention_months
        )
        if result.compressed_bytes < record.delivery_bytes:
            record.delivery_bytes = result.compressed_bytes
        record.popular = True

    # -- simulation -------------------------------------------------------------

    def simulate_views(
        self,
        total_views: int,
        popularity: Optional[PopularityModel] = None,
        seed: int = 0,
    ) -> List[str]:
        """Draw ``total_views`` from a popularity model over the catalog.

        Videos are ranked by upload order; returns the promoted names.
        """
        if not self.catalog:
            raise ValueError("no videos uploaded")
        if total_views < 0:
            raise ValueError("total_views must be non-negative")
        names = list(self.catalog)
        model = popularity or PopularityModel()
        rng = np.random.default_rng(seed)
        ranks = model.sample_ranks(total_views, len(names), rng)
        counts = np.bincount(ranks - 1, minlength=len(names))
        return self.serve_views(
            {name: int(c) for name, c in zip(names, counts) if c}
        )
