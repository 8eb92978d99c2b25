"""Sharing-service simulation on a fault-free farm: costs, uploads,
popularity promotion."""

import pytest

from repro.pipeline.costs import CostModel, CostReport
from repro.pipeline.farm import TranscodeFarm
from repro.pipeline.service import ServiceConfig
from repro.video.synthesis import synthesize


class TestCostModel:
    def test_accumulation(self):
        report = CostReport()
        report.add_storage(2e9, months=2.0)  # 4 GB-months
        report.add_egress(10e9)
        report.add_compute(7200)
        assert report.storage_gb_months == pytest.approx(4.0)
        assert report.egress_gb == pytest.approx(10.0)
        assert report.compute_hours == pytest.approx(2.0)
        assert report.total_cost == pytest.approx(
            4.0 * 0.026 + 10.0 * 0.05 + 2.0 * 0.04
        )

    def test_breakdown_keys(self):
        assert set(CostReport().breakdown()) == {
            "storage", "network", "compute", "total",
        }

    def test_negative_rejected(self):
        report = CostReport()
        with pytest.raises(ValueError):
            report.add_storage(-1)
        with pytest.raises(ValueError):
            report.add_egress(-1)
        with pytest.raises(ValueError):
            report.add_compute(-1)
        with pytest.raises(ValueError):
            CostModel(egress_per_gb=-0.1)
        for name in ("storage_per_gb_month", "egress_per_gb", "compute_per_hour"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError):
                    CostModel(**{name: bad})


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(vod_bitrate_scale=0)
        with pytest.raises(ValueError):
            ServiceConfig(popular_threshold_views=0)
        for months in (0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ServiceConfig(retention_months=months)


@pytest.fixture(scope="module")
def service():
    svc = TranscodeFarm(
        delivery_backend="x264:veryfast",
        popular_backend="x264:medium",
        service_config=ServiceConfig(popular_threshold_views=50),
    )
    for i, content in enumerate(["screencast", "natural", "gaming"]):
        clip = synthesize(content, 48, 32, 6, 12.0, seed=40 + i, name=f"up{i}")
        svc.upload(clip)
    return svc


class TestService:
    def test_upload_books_costs(self, service):
        assert service.costs.compute_hours > 0
        assert service.costs.storage_gb_months > 0
        assert len(service.catalog) == 3

    def test_duplicate_upload_rejected(self, service):
        clip = synthesize("natural", 48, 32, 4, 12.0, name="up0")
        with pytest.raises(ValueError, match="duplicate"):
            service.upload(clip)

    def test_unnamed_upload_rejected(self, service):
        clip = synthesize("natural", 48, 32, 4, 12.0).with_name("")
        with pytest.raises(ValueError, match="named"):
            service.upload(clip)

    def test_views_accrue_egress(self, service):
        before = service.costs.egress_gb
        service.serve_views({"up0": 10})
        assert service.costs.egress_gb > before
        assert service.catalog["up0"].views >= 10

    def test_popularity_promotion(self, service):
        promoted = service.serve_views({"up1": 60})
        assert "up1" in promoted
        assert service.catalog["up1"].popular
        # A second wave does not re-promote.
        assert service.serve_views({"up1": 60}) == []

    def test_unknown_video(self, service):
        with pytest.raises(KeyError):
            service.serve_views({"nope": 1})

    def test_negative_views(self, service):
        with pytest.raises(ValueError):
            service.serve_views({"up0": -1})

    def test_bad_batch_mutates_nothing(self, service):
        """Validation is all-or-nothing: a bad entry anywhere in the batch
        leaves every record and every cost untouched."""
        views_before = service.catalog["up0"].views
        egress_before = service.costs.egress_gb
        with pytest.raises(KeyError):
            service.serve_views({"up0": 10, "nope": 1})
        with pytest.raises(ValueError):
            service.serve_views({"up0": 10, "up2": -5})
        assert service.catalog["up0"].views == views_before
        assert service.costs.egress_gb == egress_before

    def test_simulate_views(self, service):
        service.simulate_views(total_views=200, seed=1)
        assert sum(r.views for r in service.catalog.values()) > 0

    def test_simulate_requires_catalog(self):
        empty = TranscodeFarm()
        with pytest.raises(ValueError):
            empty.simulate_views(10)


class TestComputeVsStorageTradeoff:
    def test_hardware_shifts_cost_from_compute(self):
        """Section 5.3's claim at the cost-model level."""
        config = ServiceConfig(popular_threshold_views=10**9)
        # A datacenter-scale stream: the stand-in represents a 720p upload,
        # so the hardware pipeline's fixed overhead amortizes realistically.
        clip = synthesize(
            "natural", 48, 32, 6, 12.0, seed=77, name="clip"
        ).with_nominal_resolution(1280, 720)
        sw = TranscodeFarm("x264:medium", service_config=config)
        hw = TranscodeFarm("nvenc", service_config=config)
        sw.upload(clip)
        hw.upload(clip.with_name("clip"))
        assert hw.costs.compute_hours < sw.costs.compute_hours


class TestWrappedHardwareBackend:
    """Two-pass is a capability of each rung's backend: a memo-wrapped
    fixed-function encoder is never asked for two passes."""

    def test_memo_wrapped_delivery_uploads(self):
        service = TranscodeFarm(delivery_backend="nvenc", memoize=True)
        record = service.upload(
            synthesize("natural", 48, 32, 4, 12.0, seed=5, name="hw-up")
        )
        assert record.delivery_bytes > 0

    def test_memo_wrapped_popular_promotes(self):
        service = TranscodeFarm(
            popular_backend="qsv",
            service_config=ServiceConfig(popular_threshold_views=5),
            memoize=True,
        )
        service.upload(synthesize("natural", 48, 32, 4, 12.0, seed=6, name="hw-pop"))
        assert service.serve_views({"hw-pop": 5}) == ["hw-pop"]
