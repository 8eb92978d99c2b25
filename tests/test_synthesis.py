"""Content synthesizers: determinism, geometry, class characteristics."""

import numpy as np
import pytest

from repro.video.synthesis import CONTENT_CLASSES, synthesize


def motion_profile(video):
    """Mean absolute luma difference across each frame transition."""
    luma = np.stack([frame.y.astype(np.int16) for frame in video])
    return np.abs(np.diff(luma, axis=0)).mean(axis=(1, 2))


class TestDispatch:
    def test_all_classes_registered(self):
        assert set(CONTENT_CLASSES) == {
            "slideshow",
            "screencast",
            "animation",
            "natural",
            "gaming",
            "sports",
        }

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown content class"):
            synthesize("noise", 32, 32, 4, 10.0)

    def test_name_defaults_to_class(self):
        assert synthesize("natural", 32, 32, 2, 10.0).name == "natural"

    def test_name_override(self):
        assert synthesize("natural", 32, 32, 2, 10.0, name="girl").name == "girl"


@pytest.mark.parametrize("content", sorted(CONTENT_CLASSES))
class TestAllClasses:
    def test_geometry(self, content):
        video = synthesize(content, 48, 32, 5, 12.0, seed=3)
        assert video.resolution == (48, 32)
        assert len(video) == 5
        assert video.fps == 12.0

    def test_deterministic(self, content):
        a = synthesize(content, 32, 32, 4, 10.0, seed=7)
        b = synthesize(content, 32, 32, 4, 10.0, seed=7)
        assert a == b

    def test_seed_changes_content(self, content):
        a = synthesize(content, 32, 32, 4, 10.0, seed=1)
        b = synthesize(content, 32, 32, 4, 10.0, seed=2)
        assert a != b

    def test_rejects_odd_geometry(self, content):
        with pytest.raises(ValueError):
            synthesize(content, 33, 32, 4, 10.0)

    def test_rejects_tiny_geometry(self, content):
        with pytest.raises(ValueError):
            synthesize(content, 8, 8, 4, 10.0)

    def test_rejects_zero_frames(self, content):
        with pytest.raises(ValueError):
            synthesize(content, 32, 32, 0, 10.0)


class TestClassCharacteristics:
    """Each class must exhibit its advertised motion behaviour."""

    def test_slideshow_is_static_within_slides(self):
        video = synthesize("slideshow", 64, 48, 8, 4.0, seed=1, slide_seconds=10.0)
        assert np.allclose(motion_profile(video), 0.0)

    def test_slideshow_cuts_between_slides(self):
        video = synthesize("slideshow", 64, 48, 8, 4.0, seed=1, slide_seconds=1.0)
        assert motion_profile(video).max() > 5.0

    def test_screencast_mostly_static(self):
        video = synthesize("screencast", 64, 48, 8, 12.0, seed=1)
        profile = motion_profile(video)
        assert profile.mean() < 3.0

    def test_sports_has_most_motion(self):
        calm = synthesize("natural", 64, 48, 8, 12.0, seed=1)
        wild = synthesize("sports", 64, 48, 8, 12.0, seed=1)
        assert motion_profile(wild).mean() > motion_profile(calm).mean()

    def test_gaming_hud_is_static(self):
        video = synthesize("gaming", 64, 48, 6, 12.0, seed=1)
        frames = video.frames
        hud_rows = frames[0].y[:4].astype(int)
        for frame in frames[1:]:
            assert np.array_equal(frame.y[:4].astype(int), hud_rows)

    def test_natural_motion_is_smooth(self):
        video = synthesize("natural", 64, 48, 8, 12.0, seed=1)
        profile = motion_profile(video)
        assert profile.std() < profile.mean() + 1.0

    def test_animation_shapes_move(self):
        video = synthesize("animation", 64, 48, 8, 12.0, seed=1, speed=2.0)
        assert motion_profile(video).mean() > 0.1
