"""Video container: validation, sequence protocol, derived clips."""

import pytest

from repro.video.frame import Frame
from repro.video.video import Video


def _video(n=4, w=16, h=16, fps=10.0):
    frames = [Frame.blank(w, h, luma=16 + i) for i in range(n)]
    return Video(frames, fps=fps, name="clip")


class TestConstruction:
    def test_basic_properties(self):
        video = _video(n=5, fps=25.0)
        assert len(video) == 5
        assert video.fps == 25.0
        assert video.resolution == (16, 16)
        assert video.frame_pixels == 256
        assert video.pixels == 1280
        assert video.duration == pytest.approx(0.2)
        assert video.pixel_rate == pytest.approx(256 * 25.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one frame"):
            Video([], fps=10)

    def test_rejects_bad_fps(self):
        with pytest.raises(ValueError, match="fps"):
            Video([Frame.blank(16, 16)], fps=0)

    def test_rejects_mixed_resolutions(self):
        frames = [Frame.blank(16, 16), Frame.blank(32, 16)]
        with pytest.raises(ValueError, match="resolution"):
            Video(frames, fps=10)

    def test_nominal_resolution_defaults_to_actual(self):
        video = _video()
        assert video.nominal_resolution == (16, 16)
        assert video.nominal_pixels == 256

    def test_nominal_resolution_override(self):
        video = _video().with_nominal_resolution(1920, 1080)
        assert video.nominal_pixels == 1920 * 1080
        assert video.nominal_pixel_rate == pytest.approx(1920 * 1080 * 10.0)
        # Actual geometry unchanged.
        assert video.resolution == (16, 16)


class TestSequence:
    def test_indexing(self):
        video = _video()
        assert video[0].y[0, 0] == 16
        assert video[-1].y[0, 0] == 19

    def test_slicing_returns_video(self):
        video = _video(n=6)
        sub = video[2:4]
        assert isinstance(sub, Video)
        assert len(sub) == 2
        assert sub.name == video.name

    def test_empty_slice_rejected(self):
        with pytest.raises(ValueError):
            _video()[4:4]

    def test_iteration(self):
        assert sum(1 for _ in _video(n=3)) == 3

    def test_frames_list_is_copy(self):
        video = _video()
        video.frames.append(None)
        assert len(video) == 4

    def test_equality(self):
        assert _video() == _video()
        assert _video(n=3) != _video(n=4)
        assert _video(fps=10.0) != _video(fps=20.0)

    def test_repr(self):
        assert "16x16" in repr(_video())


class TestDerived:
    def test_with_name(self):
        assert _video().with_name("other").name == "other"

    def test_chunk_splits_evenly(self):
        video = _video(n=6, fps=2.0)  # 3 seconds
        chunks = video.chunk(1.0)
        assert [len(c) for c in chunks] == [2, 2, 2]

    def test_chunk_keeps_remainder(self):
        video = _video(n=5, fps=2.0)
        chunks = video.chunk(1.0)
        assert [len(c) for c in chunks] == [2, 2, 1]

    def test_chunk_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            _video().chunk(0)
