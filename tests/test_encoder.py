"""Encoder: the central codec invariants.

The headline test of the whole codec is the round trip: the bitstream a
configuration produces must decode to exactly the reconstruction the
encoder used as its reference chain.  Any drift there corrupts every
downstream frame.
"""

import pytest

from repro.codec.decoder import decode
from repro.codec.encoder import EncodeResult, encode
from repro.codec.presets import PRESETS, preset
from repro.codec.types import FrameType
from repro.metrics.psnr import psnr
from repro.video.synthesis import synthesize
from repro.video.video import Video


@pytest.mark.parametrize("preset_name", sorted(PRESETS))
def test_roundtrip_every_preset(natural_video, preset_name):
    result = encode(natural_video, config=preset_name, crf=30)
    assert decode(result.bitstream) == result.recon


@pytest.mark.parametrize(
    "overrides",
    [
        {"transform_size": 16},
        {"transform_size": 16, "entropy_coder": "cabac"},
        {"flat_quant": False},
        {"deblock": False},
        {"chroma_qp_offset": -2},
        {"subpel_depth": 2},
        {"search_method": "none"},
    ],
)
def test_roundtrip_tool_matrix(natural_video, overrides):
    cfg = preset("veryfast").derived(**overrides)
    result = encode(natural_video, config=cfg, crf=28)
    assert decode(result.bitstream) == result.recon


class TestBasics:
    def test_result_fields(self, medium_crf_encode):
        result = medium_crf_encode
        assert isinstance(result, EncodeResult)
        assert result.total_bits == 8 * len(result.bitstream)
        assert result.keyframes >= 1
        assert len(result.stats) == 8

    def test_first_frame_is_i(self, medium_crf_encode):
        assert medium_crf_encode.stats[0].frame_type is FrameType.I

    def test_quality_reasonable(self, natural_video, medium_crf_encode):
        assert psnr(natural_video, medium_crf_encode.recon) > 30.0

    def test_lower_crf_higher_quality(self, natural_video):
        fine = encode(natural_video, crf=16)
        coarse = encode(natural_video, crf=40)
        assert psnr(natural_video, fine.recon) > psnr(natural_video, coarse.recon)
        assert fine.total_bits > coarse.total_bits

    def test_recon_preserves_metadata(self, natural_video):
        video = natural_video.with_nominal_resolution(854, 480).with_name("x")
        result = encode(video, crf=30)
        assert result.recon.name == "x"
        assert result.recon.nominal_resolution == (854, 480)
        assert result.recon.fps == video.fps

    def test_odd_dimensions_padded_and_cropped(self):
        video = synthesize("natural", 50, 34, 4, 10.0, seed=2)
        result = encode(video, crf=30)
        assert result.recon.resolution == (50, 34)
        assert decode(result.bitstream) == result.recon

    def test_single_frame_video(self):
        video = synthesize("natural", 32, 32, 1, 10.0)
        result = encode(video, crf=30)
        assert len(result.stats) == 1
        assert result.stats[0].frame_type is FrameType.I
        assert decode(result.bitstream) == result.recon


class TestFrameTypes:
    def test_static_video_goes_all_skip(self, static_video):
        result = encode(static_video, crf=26)
        for stats in result.stats[2:]:
            assert stats.frame_type is FrameType.P
            assert stats.skip_blocks == stats.total_blocks

    def test_keyint_forces_i(self, natural_video):
        cfg = preset("veryfast").derived(keyint=3)
        result = encode(natural_video, config=cfg, crf=30)
        types = [s.frame_type for s in result.stats]
        assert types[0] is FrameType.I
        assert types[3] is FrameType.I
        assert types[6] is FrameType.I

    def test_scene_cut_detected(self):
        a = synthesize("natural", 48, 32, 4, 10.0, seed=1)
        b = synthesize("gaming", 48, 32, 4, 10.0, seed=9)
        video = Video(a.frames + b.frames, fps=10.0)
        result = encode(video, crf=28)
        types = [s.frame_type for s in result.stats]
        assert types[4] is FrameType.I  # the splice point

    def test_steady_motion_stays_p(self, sports_video):
        result = encode(sports_video, crf=30)
        types = [s.frame_type for s in result.stats[1:]]
        assert types.count(FrameType.P) >= len(types) - 1


class TestEffortTradeoffs:
    """The paper's core premise: effort buys compression."""

    def test_slow_smaller_than_fast(self, sports_video):
        fast = encode(sports_video, config="veryfast", crf=30)
        slow = encode(sports_video, config="veryslow", crf=30)
        assert slow.total_bits < fast.total_bits

    def test_cabac_beats_cavlc(self, sports_video):
        base = preset("medium")
        cavlc = encode(sports_video, config=base, crf=30)
        cabac = encode(
            sports_video, config=base.derived(entropy_coder="cabac"), crf=30
        )
        assert cabac.total_bits < cavlc.total_bits

    def test_motion_search_helps_moving_content(self):
        video = synthesize("gaming", 96, 48, 8, 12.0, seed=3)
        none = encode(
            video, config=preset("medium").derived(search_method="none"), crf=30
        )
        log = encode(video, config="medium", crf=30)
        assert log.total_bits < none.total_bits

    def test_more_sad_work_at_higher_effort(self, sports_video):
        fast = encode(sports_video, config="veryfast", crf=30)
        slow = encode(sports_video, config="placebo", crf=30)
        assert slow.counters.get("sad") > fast.counters.get("sad")


class TestRateModes:
    def test_abr_hits_target(self):
        # Long enough for the controller to amortize the leading I frame.
        video = synthesize("sports", 80, 48, 24, 12.0, seed=5)
        target = 60_000.0
        result = encode(video, bitrate_bps=target)
        actual = result.total_bits / video.duration
        assert actual == pytest.approx(target, rel=0.3)

    def test_two_pass_at_least_as_accurate(self, sports_video):
        target = 60_000.0
        one = encode(sports_video, bitrate_bps=target)
        two = encode(sports_video, bitrate_bps=target, two_pass=True)
        err_one = abs(one.total_bits / sports_video.duration - target)
        err_two = abs(two.total_bits / sports_video.duration - target)
        assert err_two <= err_one * 1.5  # two-pass must not be wildly worse

    def test_two_pass_counters_cover_both_passes(self, sports_video):
        one = encode(sports_video, bitrate_bps=50_000)
        two = encode(sports_video, bitrate_bps=50_000, two_pass=True)
        assert two.counters.get("frame_setup") > one.counters.get("frame_setup")

    def test_two_pass_roundtrip(self, sports_video):
        result = encode(sports_video, bitrate_bps=50_000, two_pass=True)
        assert decode(result.bitstream) == result.recon

    def test_argument_validation(self, natural_video):
        with pytest.raises(ValueError, match="exactly one"):
            encode(natural_video)
        with pytest.raises(ValueError, match="exactly one"):
            encode(natural_video, crf=20, bitrate_bps=1e5)
        with pytest.raises(ValueError, match="bitrate"):
            encode(natural_video, crf=20, two_pass=True)


class TestCounters:
    def test_counters_populated(self, medium_crf_encode):
        counters = medium_crf_encode.counters
        for kernel in ("frame_setup", "dct", "quant", "recon", "entropy_sym"):
            assert counters.get(kernel) > 0

    def test_skip_bias_reduces_work(self, natural_video):
        base = preset("veryfast")
        normal = encode(natural_video, config=base, crf=30)
        biased = encode(natural_video, config=base.derived(skip_bias=16.0), crf=30)
        assert biased.counters.total() < normal.counters.total()
