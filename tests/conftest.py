"""Shared fixtures: small deterministic videos and cached encodes.

Encoding is the expensive operation in this suite, so fixtures that
involve encodes are session-scoped and the videos are deliberately tiny
(48x32 to 112x64); correctness properties of the codec do not depend on
frame size.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from repro.codec.encoder import encode
from repro.video.frame import Frame
from repro.video.synthesis import synthesize
from repro.video.video import Video


@pytest.fixture(scope="session")
def natural_video() -> Video:
    """A small natural clip with motion and grain."""
    return synthesize("natural", 64, 48, 8, 12.0, seed=11)


@pytest.fixture(scope="session")
def static_video() -> Video:
    """Six identical frames: the degenerate all-skip case."""
    base = synthesize("screencast", 64, 48, 1, 12.0, seed=3)[0]
    return Video([base] * 6, fps=12.0, name="static")


@pytest.fixture(scope="session")
def sports_video() -> Video:
    """A small high-motion clip (scene cuts, grain)."""
    return synthesize("sports", 80, 48, 10, 12.0, seed=5)


@pytest.fixture(scope="session")
def all_content_videos() -> dict:
    """One tiny clip per content class."""
    return {
        name: synthesize(name, 64, 48, 6, 12.0, seed=21)
        for name in (
            "slideshow",
            "screencast",
            "animation",
            "natural",
            "gaming",
            "sports",
        )
    }


@pytest.fixture(scope="session")
def medium_crf_encode(natural_video):
    """A cached medium/CRF-28 encode of the natural clip."""
    return encode(natural_video, config="medium", crf=28)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def checker_frame() -> Frame:
    """A 32x32 checkerboard frame (high-frequency content)."""
    yy, xx = np.mgrid[0:32, 0:32]
    luma = np.where((yy // 4 + xx // 4) % 2 == 0, 200, 40).astype(np.uint8)
    chroma = np.full((16, 16), 128, dtype=np.uint8)
    return Frame(luma, chroma, chroma.copy())


def _categories_digest(categories) -> str:
    """SHA-256 over every category field, its type, and float bytes."""
    h = hashlib.sha256()
    for c in categories:
        for value in (c.width, c.height, c.framerate, c.entropy, c.weight):
            h.update(type(value).__name__.encode())
            if isinstance(value, float):
                h.update(struct.pack("<d", value))
            else:
                h.update(str(value).encode())
            h.update(b";")
    return h.hexdigest()


@pytest.fixture(scope="session")
def categories_digest():
    """Digest of a category list that moves if any field's bits or type do."""
    return _categories_digest
