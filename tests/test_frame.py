"""Frame: geometry validation, immutability, padding, cropping."""

import numpy as np
import pytest

from repro.video.frame import Frame


def _planes(w=16, h=16, value=100):
    y = np.full((h, w), value, dtype=np.uint8)
    c = np.full((h // 2, w // 2), 128, dtype=np.uint8)
    return y, c, c.copy()


class TestConstruction:
    def test_basic(self):
        frame = Frame(*_planes())
        assert frame.width == 16
        assert frame.height == 16
        assert frame.pixels == 256
        assert frame.resolution == (16, 16)

    def test_rejects_odd_dimensions(self):
        y = np.zeros((15, 16), dtype=np.uint8)
        c = np.zeros((7, 8), dtype=np.uint8)
        with pytest.raises(ValueError, match="even"):
            Frame(y, c, c.copy())

    def test_rejects_wrong_chroma_shape(self):
        y = np.zeros((16, 16), dtype=np.uint8)
        c = np.zeros((16, 16), dtype=np.uint8)
        with pytest.raises(ValueError, match="chroma"):
            Frame(y, c, c.copy())

    def test_rejects_wrong_dtype(self):
        y = np.zeros((16, 16), dtype=np.float64)
        c = np.zeros((8, 8), dtype=np.uint8)
        with pytest.raises(TypeError, match="uint8"):
            Frame(y, c, c.copy())

    def test_rejects_non_array(self):
        c = np.zeros((8, 8), dtype=np.uint8)
        with pytest.raises(TypeError):
            Frame([[0] * 16] * 16, c, c.copy())

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Frame(
                np.zeros((0, 0), dtype=np.uint8),
                np.zeros((0, 0), dtype=np.uint8),
                np.zeros((0, 0), dtype=np.uint8),
            )

    def test_planes_become_readonly(self):
        frame = Frame(*_planes())
        with pytest.raises(ValueError):
            frame.y[0, 0] = 5

    def test_from_planes_clips_floats(self):
        y = np.full((16, 16), 300.7)
        c = np.full((8, 8), -4.2)
        frame = Frame.from_planes(y, c, c)
        assert frame.y.max() == 255
        assert frame.u.min() == 0

    def test_from_planes_rounds(self):
        y = np.full((16, 16), 99.5)
        c = np.full((8, 8), 128.0)
        frame = Frame.from_planes(y, c, c)
        assert frame.y[0, 0] == 100


class TestBlank:
    def test_default_black(self):
        frame = Frame.blank(32, 16)
        assert frame.y[0, 0] == 16
        assert frame.u[0, 0] == 128

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            Frame.blank(0, 16)
        with pytest.raises(ValueError):
            Frame.blank(15, 16)


class TestOperations:
    def test_copy_is_independent(self):
        frame = Frame(*_planes())
        other = frame.copy()
        assert frame == other
        assert frame.y is not other.y

    def test_equality(self):
        assert Frame(*_planes()) == Frame(*_planes())
        assert Frame(*_planes(value=10)) != Frame(*_planes(value=20))

    def test_equality_other_type(self):
        assert Frame(*_planes()) != "frame"

    def test_crop(self):
        frame = Frame.blank(32, 32)
        cropped = frame.crop(16, 8)
        assert cropped.resolution == (16, 8)
        assert cropped.u.shape == (4, 8)

    def test_crop_rejects_growth(self):
        with pytest.raises(ValueError, match="cannot crop"):
            Frame.blank(16, 16).crop(32, 16)

    def test_crop_rejects_odd(self):
        with pytest.raises(ValueError, match="even"):
            Frame.blank(16, 16).crop(15, 8)

    def test_pad_to_multiple(self):
        frame = Frame.blank(18, 34)
        padded = frame.pad_to_multiple(16)
        assert padded.resolution == (32, 48)
        # Edge replication: padded pixels equal the border values.
        assert padded.y[40, 30] == frame.y[33, 17]

    def test_pad_noop_when_aligned(self):
        frame = Frame.blank(32, 16)
        assert frame.pad_to_multiple(16) is frame

    def test_pad_rejects_odd_multiple(self):
        with pytest.raises(ValueError):
            Frame.blank(16, 16).pad_to_multiple(15)

    def test_repr(self):
        assert "16x16" in repr(Frame.blank(16, 16))
