"""Video sharing service simulation (Section 2.5, Figure 3).

Models the transcoding passes of a YouTube-class infrastructure: uploads
arrive in arbitrary formats, get a universal transcode, then live or VOD
transcodes into the delivery ladder; videos observed to be popular earn a
high-effort re-transcode whose cost is amortized over their many
playbacks.  A storage/network/compute cost model quantifies the tradeoffs
the paper's scenarios encode.

:class:`~repro.pipeline.farm.TranscodeFarm` is that service: a worker
farm that runs every pass through retries, circuit breakers, deadlines,
graceful degradation and a dead-letter queue.  Fault-free (no
``fault_plan``) it is the plain Figure 3 pipeline; with one it is the
same pipeline under injected chaos.
"""

from repro.pipeline.costs import CostModel, CostReport
from repro.pipeline.farm import (
    DeadLetter,
    FarmConfig,
    FarmJobError,
    RobustnessReport,
    TranscodeFarm,
)
from repro.pipeline.service import ServiceConfig, VideoRecord

__all__ = [
    "CostModel",
    "CostReport",
    "DeadLetter",
    "FarmConfig",
    "FarmJobError",
    "RobustnessReport",
    "ServiceConfig",
    "TranscodeFarm",
    "VideoRecord",
]
