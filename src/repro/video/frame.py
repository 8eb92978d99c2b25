"""A single planar YUV 4:2:0 video frame.

Video codecs operate in the YUV color space rather than RGB because human
vision is more sensitive to luminosity (luma, the Y plane) than to color
(chroma, the U/Cb and V/Cr planes).  4:2:0 chroma subsampling stores one
chroma sample per 2x2 luma block, so the chroma planes have half the width
and half the height of the luma plane (Section 2.1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Frame"]


def _validate_plane(name: str, plane: np.ndarray) -> np.ndarray:
    """Check that ``plane`` is a 2-D uint8 array and return it C-contiguous."""
    if not isinstance(plane, np.ndarray):
        raise TypeError(f"{name} plane must be a numpy array, got {type(plane)!r}")
    if plane.ndim != 2:
        raise ValueError(f"{name} plane must be 2-D, got shape {plane.shape}")
    if plane.dtype != np.uint8:
        raise TypeError(f"{name} plane must be uint8, got {plane.dtype}")
    if plane.size == 0:
        raise ValueError(f"{name} plane must be non-empty")
    return np.ascontiguousarray(plane)


@dataclass(frozen=True)
class Frame:
    """One planar YUV 4:2:0 picture.

    Attributes:
        y: Luma plane, shape ``(height, width)``, dtype uint8.
        u: Blue-difference chroma plane, shape ``(height // 2, width // 2)``.
        v: Red-difference chroma plane, shape ``(height // 2, width // 2)``.

    Frames require even width and height so the 4:2:0 subsampling is exact.
    Instances are logically immutable: planes are stored with the writeable
    flag cleared, and mutating helpers return new frames.
    """

    y: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        y = _validate_plane("Y", self.y)
        u = _validate_plane("U", self.u)
        v = _validate_plane("V", self.v)
        height, width = y.shape
        if height % 2 or width % 2:
            raise ValueError(
                f"4:2:0 frames need even dimensions, got {width}x{height}"
            )
        expected = (height // 2, width // 2)
        if u.shape != expected or v.shape != expected:
            raise ValueError(
                f"chroma planes must be {expected} for a {width}x{height} "
                f"frame, got U={u.shape} V={v.shape}"
            )
        for plane in (y, u, v):
            plane.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    # -- construction -----------------------------------------------------

    @classmethod
    def blank(cls, width: int, height: int, luma: int = 16, chroma: int = 128) -> "Frame":
        """Create a uniform frame (default: black in video range)."""
        if width <= 0 or height <= 0:
            raise ValueError(f"frame dimensions must be positive, got {width}x{height}")
        if width % 2 or height % 2:
            raise ValueError(f"frame dimensions must be even, got {width}x{height}")
        return cls(
            y=np.full((height, width), luma, dtype=np.uint8),
            u=np.full((height // 2, width // 2), chroma, dtype=np.uint8),
            v=np.full((height // 2, width // 2), chroma, dtype=np.uint8),
        )

    @classmethod
    def from_planes(cls, y: np.ndarray, u: np.ndarray, v: np.ndarray) -> "Frame":
        """Build a frame from float or int planes, clipping to [0, 255]."""
        def _prep(p: np.ndarray) -> np.ndarray:
            arr = np.asarray(p)
            if arr.dtype != np.uint8:
                arr = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
            return arr

        return cls(_prep(y), _prep(u), _prep(v))

    # -- geometry ----------------------------------------------------------

    @property
    def width(self) -> int:
        """Luma width in pixels."""
        return self.y.shape[1]

    @property
    def height(self) -> int:
        """Luma height in pixels."""
        return self.y.shape[0]

    @property
    def pixels(self) -> int:
        """Number of luma pixels (the paper's normalization unit)."""
        return self.width * self.height

    @property
    def resolution(self) -> tuple:
        """``(width, height)`` tuple."""
        return (self.width, self.height)

    # -- helpers -----------------------------------------------------------

    def planes(self) -> tuple:
        """Return ``(y, u, v)``."""
        return (self.y, self.u, self.v)

    def copy(self) -> "Frame":
        """Deep-copy the frame (new, independent plane buffers)."""
        return Frame(self.y.copy(), self.u.copy(), self.v.copy())

    def crop(self, width: int, height: int) -> "Frame":
        """Crop to the top-left ``width x height`` region (both even)."""
        if width > self.width or height > self.height:
            raise ValueError(
                f"cannot crop {self.width}x{self.height} frame to {width}x{height}"
            )
        if width % 2 or height % 2:
            raise ValueError(f"crop dimensions must be even, got {width}x{height}")
        return Frame(
            self.y[:height, :width].copy(),
            self.u[: height // 2, : width // 2].copy(),
            self.v[: height // 2, : width // 2].copy(),
        )

    def pad_to_multiple(self, multiple: int) -> "Frame":
        """Edge-pad the frame so both luma dimensions divide ``multiple``.

        Codecs require frame dimensions that are a whole number of
        macroblocks; encoders pad with edge replication, which compresses
        essentially for free.
        """
        if multiple <= 0 or multiple % 2:
            raise ValueError(f"pad multiple must be positive and even, got {multiple}")
        new_w = -(-self.width // multiple) * multiple
        new_h = -(-self.height // multiple) * multiple
        if (new_w, new_h) == (self.width, self.height):
            return self
        pad_y = ((0, new_h - self.height), (0, new_w - self.width))
        pad_c = ((0, (new_h - self.height) // 2), (0, (new_w - self.width) // 2))
        return Frame(
            np.pad(self.y, pad_y, mode="edge"),
            np.pad(self.u, pad_c, mode="edge"),
            np.pad(self.v, pad_c, mode="edge"),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return (
            np.array_equal(self.y, other.y)
            and np.array_equal(self.u, other.u)
            and np.array_equal(self.v, other.v)
        )

    def __hash__(self) -> int:  # pragma: no cover - frames are not dict keys
        return hash((self.width, self.height, self.y.tobytes()[:64]))

    def __repr__(self) -> str:
        return f"Frame({self.width}x{self.height})"
