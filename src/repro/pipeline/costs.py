"""The three costs of a video sharing service (Section 2.5).

* **storage** -- proportional to the stored corpus, all replicas included;
* **network** -- dominated by egress of watched bytes;
* **compute** -- paid per transcode.

Prices default to public-cloud list-price magnitudes; they only need to be
*relatively* sane, since the interesting outputs are how the balance
shifts when transcoding choices change (e.g. a hardware encoder cutting
compute while inflating storage and egress, Section 5.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.exec.cache import CacheStats

__all__ = ["CostModel", "CostReport"]


@dataclass(frozen=True)
class CostModel:
    """Unit prices.

    Attributes:
        storage_per_gb_month: $ per GB-month stored (incl. replication).
        egress_per_gb: $ per GB served to viewers.
        compute_per_hour: $ per transcoder-core-hour.
    """

    storage_per_gb_month: float = 0.026
    egress_per_gb: float = 0.05
    compute_per_hour: float = 0.04

    def __post_init__(self) -> None:
        for name in ("storage_per_gb_month", "egress_per_gb", "compute_per_hour"):
            price = getattr(self, name)
            if not math.isfinite(price) or price < 0:
                raise ValueError(
                    f"{name} must be finite and non-negative, got {price}"
                )

    def compute_dollars(self, seconds: float) -> float:
        """Price of ``seconds`` of transcoder compute.

        The deadline scheduler uses this to break ties between
        equal-quality operating points ("Where to Encode": pick the
        cheapest machine that meets the deadline).
        """
        if seconds < 0:
            raise ValueError(f"compute seconds must be >= 0, got {seconds}")
        return seconds / 3600.0 * self.compute_per_hour


@dataclass
class CostReport:
    """Accumulated service costs, in dollars.

    ``cache`` carries the transcode-cache statistics of the run that
    produced this report, when a persistent cache was in play -- cache
    hits are compute the service did *not* pay for, surfaced via
    :attr:`compute_hours_saved`.
    """

    storage_gb_months: float = 0.0
    egress_gb: float = 0.0
    compute_hours: float = 0.0
    model: CostModel = field(default_factory=CostModel)
    cache: Optional["CacheStats"] = None

    def add_storage(self, size_bytes: float, months: float = 1.0) -> None:
        if size_bytes < 0 or months < 0:
            raise ValueError("storage additions must be non-negative")
        self.storage_gb_months += size_bytes / 1e9 * months

    def add_egress(self, size_bytes: float) -> None:
        if size_bytes < 0:
            raise ValueError("egress must be non-negative")
        self.egress_gb += size_bytes / 1e9

    def add_compute(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("compute must be non-negative")
        self.compute_hours += seconds / 3600.0

    @property
    def storage_cost(self) -> float:
        return self.storage_gb_months * self.model.storage_per_gb_month

    @property
    def network_cost(self) -> float:
        return self.egress_gb * self.model.egress_per_gb

    @property
    def compute_cost(self) -> float:
        return self.compute_hours * self.model.compute_per_hour

    @property
    def total_cost(self) -> float:
        return self.storage_cost + self.network_cost + self.compute_cost

    @property
    def compute_hours_saved(self) -> float:
        """Compute-hours the transcode cache avoided (0 without a cache)."""
        if self.cache is None:
            return 0.0
        return self.cache.seconds_saved / 3600.0

    def breakdown(self) -> dict:
        """Cost per category, in dollars."""
        return {
            "storage": self.storage_cost,
            "network": self.network_cost,
            "compute": self.compute_cost,
            "total": self.total_cost,
        }
