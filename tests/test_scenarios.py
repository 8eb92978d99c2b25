"""Table 1 scoring: ratios, constraints, scores for all five scenarios."""

import pytest

from repro.codec.instrumentation import Counters
from repro.core.scenarios import Scenario, compute_ratios, score_scenario
from repro.encoders.base import TranscodeResult
from repro.video.frame import Frame
from repro.video.video import Video


def _result(
    quality_db=40.0,
    compressed_bytes=10_000,
    seconds=1.0,
    nominal=(64, 48),
):
    video = Video(
        [Frame.blank(64, 48)] * 10, fps=10.0, name="v"
    ).with_nominal_resolution(*nominal)
    result = TranscodeResult(
        source=video,
        output=video,
        compressed_bytes=compressed_bytes,
        seconds=seconds,
        counters=Counters(),
        backend="test",
    )
    # Quality of identical videos is the cap; monkeypatch a chosen value.
    result.__dict__["_q"] = quality_db
    type(result).quality_db = property(lambda self: self.__dict__.get("_q", 100.0))
    return result


@pytest.fixture(autouse=True)
def _restore_quality_property():
    original = TranscodeResult.quality_db
    yield
    TranscodeResult.quality_db = original


class TestRatios:
    def test_definitions(self):
        ref = _result(quality_db=40.0, compressed_bytes=10_000, seconds=2.0)
        new = _result(quality_db=42.0, compressed_bytes=5_000, seconds=1.0)
        ratios = compute_ratios(new, ref)
        assert ratios.speed == pytest.approx(2.0)
        assert ratios.bitrate == pytest.approx(2.0)  # ref/new
        assert ratios.quality == pytest.approx(42.0 / 40.0)

    def test_degenerate_candidate_rejected(self):
        ref = _result()
        new = _result(compressed_bytes=0)
        with pytest.raises(ValueError):
            compute_ratios(new, ref)


class TestUpload:
    def test_score_is_s_times_q(self):
        ref = _result(seconds=2.0)
        new = _result(seconds=1.0, quality_db=44.0)
        score = score_scenario(Scenario.UPLOAD, new, ref)
        assert score.constraint_met
        assert score.score == pytest.approx(2.0 * 44.0 / 40.0)

    def test_bitrate_explosion_fails(self):
        ref = _result(compressed_bytes=1_000)
        new = _result(compressed_bytes=10_000)  # B = 0.1 <= 0.2
        score = score_scenario(Scenario.UPLOAD, new, ref)
        assert not score.constraint_met
        assert score.score is None


class TestLive:
    def test_realtime_constraint_uses_nominal_rate(self):
        # Nominal 1920x1080@10 = 20.7 Mpx/s obligation.
        ref = _result(nominal=(1920, 1080))
        slow = _result(nominal=(1920, 1080), seconds=1.0)  # 0.3 Mpix/s actual
        score = score_scenario(Scenario.LIVE, slow, ref)
        assert not score.constraint_met

    def test_fast_candidate_passes(self):
        ref = _result(seconds=1.0)
        fast = _result(seconds=1e-4, compressed_bytes=9_000, quality_db=41.0)
        score = score_scenario(Scenario.LIVE, fast, ref)
        assert score.constraint_met
        assert score.score == pytest.approx((10_000 / 9_000) * (41.0 / 40.0))


class TestVod:
    def test_quality_floor(self):
        ref = _result(quality_db=40.0)
        worse = _result(quality_db=39.0, seconds=0.1)
        assert score_scenario(Scenario.VOD, worse, ref).score is None

    def test_score_is_s_times_b(self):
        ref = _result(seconds=2.0)
        new = _result(seconds=1.0, compressed_bytes=8_000, quality_db=40.5)
        score = score_scenario(Scenario.VOD, new, ref)
        assert score.score == pytest.approx(2.0 * 10_000 / 8_000)

    def test_visually_lossless_escape(self):
        ref = _result(quality_db=55.0)
        new = _result(quality_db=52.0)  # Q < 1 but > 50 dB
        assert score_scenario(Scenario.VOD, new, ref).constraint_met


class TestPopular:
    def test_requires_both_wins(self):
        ref = _result()
        new = _result(quality_db=41.0, compressed_bytes=9_000)
        score = score_scenario(Scenario.POPULAR, new, ref)
        assert score.constraint_met
        assert score.score == pytest.approx((10 / 9) * (41 / 40))

    def test_bigger_file_fails(self):
        ref = _result()
        new = _result(quality_db=41.0, compressed_bytes=11_000)
        assert score_scenario(Scenario.POPULAR, new, ref).score is None

    def test_slower_than_ten_x_fails(self):
        ref = _result(seconds=1.0)
        new = _result(seconds=20.0, quality_db=41.0, compressed_bytes=9_000)
        assert score_scenario(Scenario.POPULAR, new, ref).score is None


class TestPlatform:
    def test_identical_transcode_scores_speed(self):
        ref = _result(seconds=2.0)
        new = _result(seconds=1.0)
        score = score_scenario(Scenario.PLATFORM, new, ref)
        assert score.constraint_met
        assert score.score == pytest.approx(2.0)

    def test_different_bits_fail(self):
        ref = _result()
        new = _result(compressed_bytes=9_999)
        assert score_scenario(Scenario.PLATFORM, new, ref).score is None
