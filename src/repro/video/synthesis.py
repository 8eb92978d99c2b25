"""Procedural video synthesis: stand-ins for the commercial corpus.

The paper selects real YouTube uploads; offline we synthesize clips whose
*content class* spans the same range the paper characterizes (Figure 4):
from still slideshows (entropy < 1 bit/pixel/s) to high-motion sports with
frequent scene changes (entropy > 10).  Entropy here is an emergent property:
it is measured by actually encoding the clip at constant quality
(:mod:`repro.video.entropy`), exactly as the paper measures it.

Each generator is deterministic given its seed.  The knobs that drive
measured entropy are:

* texture detail (``detail``) -- high-frequency spatial content survives
  quantization and costs bits;
* motion (pan speed, sprite count) -- motion estimation residuals grow with
  motion magnitude and incoherence;
* temporal noise (``noise``) -- film grain / sensor noise is incompressible;
* scene cuts -- force intra frames, the most expensive frame type.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.video.filters import zoom_linear
from repro.video.frame import Frame
from repro.video.video import Video

__all__ = [
    "CONTENT_CLASSES",
    "synthesize",
]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _value_noise(
    rng: np.random.Generator,
    height: int,
    width: int,
    cell: int,
    low: float = 0.0,
    high: float = 255.0,
) -> np.ndarray:
    """Smooth 2-D value noise: a coarse random grid bilinearly upsampled.

    ``cell`` is the correlation length in pixels; small cells give busy,
    detailed textures, large cells give smooth gradients.
    """
    cell = max(1, int(cell))
    grid_h = max(2, -(-height // cell) + 1)
    grid_w = max(2, -(-width // cell) + 1)
    coarse = rng.uniform(low, high, size=(grid_h, grid_w))
    return zoom_linear(coarse, (height, width))


def _frac_window(
    texture: np.ndarray, oy: float, ox: float, height: int, width: int
) -> np.ndarray:
    """Sample a ``height x width`` window at a fractional offset.

    Bilinear sampling: sub-pixel camera motion is what produces the small
    prediction residuals real panning footage has (integer pans would be
    motion-compensated for free).
    """
    iy, fy = int(oy), oy - int(oy)
    ix, fx = int(ox), ox - int(ox)
    a = texture[iy : iy + height, ix : ix + width]
    b = texture[iy : iy + height, ix + 1 : ix + 1 + width]
    c = texture[iy + 1 : iy + 1 + height, ix : ix + width]
    d = texture[iy + 1 : iy + 1 + height, ix + 1 : ix + 1 + width]
    return (
        (1 - fy) * (1 - fx) * a
        + (1 - fy) * fx * b
        + fy * (1 - fx) * c
        + fy * fx * d
    )


def _finalize(
    luma_frames: List[np.ndarray],
    chroma_u: List[np.ndarray],
    chroma_v: List[np.ndarray],
    fps: float,
    name: str,
) -> Video:
    frames = [
        Frame.from_planes(y, u, v)
        for y, u, v in zip(luma_frames, chroma_u, chroma_v)
    ]
    return Video(frames, fps=fps, name=name)


def _flat_chroma(height: int, width: int, u: float, v: float, n: int):
    cu = [np.full((height // 2, width // 2), u) for _ in range(n)]
    cv = [np.full((height // 2, width // 2), v) for _ in range(n)]
    return cu, cv


def _check_geometry(width: int, height: int, frames: int) -> None:
    if width % 2 or height % 2:
        raise ValueError(f"dimensions must be even, got {width}x{height}")
    if width < 16 or height < 16:
        raise ValueError(f"need at least 16x16 pixels, got {width}x{height}")
    if frames < 1:
        raise ValueError(f"need at least one frame, got {frames}")


# ---------------------------------------------------------------------------
# Content classes
# ---------------------------------------------------------------------------


def slideshow(
    width: int,
    height: int,
    frames: int,
    fps: float,
    seed: int = 0,
    slide_seconds: float = 2.0,
    name: str = "slideshow",
) -> Video:
    """Still slides with hard cuts: the lowest-entropy class.

    Models presentations and photo slideshows ("presentation" in Table 2,
    entropy ~0.2 bit/px/s): every frame within a slide is identical, so
    inter frames are pure skip blocks and nearly free.
    """
    _check_geometry(width, height, frames)
    rng = _rng(seed)
    per_slide = max(1, int(round(slide_seconds * fps)))
    n_slides = -(-frames // per_slide)
    slides = []
    for _ in range(n_slides):
        bg = np.full((height, width), rng.uniform(170, 235))
        # Title bar and a few text-like stripes of fine-grained noise.
        slide = bg.copy()
        bar_h = max(2, height // 8)
        slide[:bar_h, :] = rng.uniform(40, 90)
        n_lines = int(rng.integers(3, 7))
        for line in range(n_lines):
            y0 = bar_h + 2 + line * max(2, (height - bar_h) // (n_lines + 1))
            if y0 + 2 >= height:
                break
            text_w = int(width * rng.uniform(0.4, 0.9))
            slide[y0 : y0 + 2, 4 : 4 + text_w] = rng.uniform(
                20, 70, size=(min(2, height - y0), text_w)
            )
        slides.append(slide)
    luma = [slides[min(i // per_slide, n_slides - 1)] for i in range(frames)]
    cu, cv = _flat_chroma(height, width, 128.0, 122.0, frames)
    return _finalize(luma, cu, cv, fps, name)


def screencast(
    width: int,
    height: int,
    frames: int,
    fps: float,
    seed: int = 0,
    activity: float = 0.08,
    name: str = "screencast",
) -> Video:
    """Desktop capture: mostly static UI with a small active region.

    Models the "desktop" vbench video (720p, entropy 0.2): a static
    background with sharp edges, a moving cursor, and occasional localized
    updates (typing / scrolling) covering ``activity`` of the frame area.
    """
    _check_geometry(width, height, frames)
    rng = _rng(seed)
    desktop = np.full((height, width), 210.0)
    # Window chrome: sharp rectangles, high-contrast edges.
    for _ in range(4):
        x0 = int(rng.integers(0, max(1, width - width // 3)))
        y0 = int(rng.integers(0, max(1, height - height // 3)))
        w = int(rng.integers(width // 4, width // 2))
        h = int(rng.integers(height // 4, height // 2))
        desktop[y0 : y0 + h, x0 : x0 + w] = rng.uniform(120, 250)
        desktop[y0 : min(y0 + 2, height), x0 : x0 + w] = 60.0
    active_h = max(4, int(height * math.sqrt(activity)))
    active_w = max(4, int(width * math.sqrt(activity)))
    ax = int(rng.integers(0, max(1, width - active_w)))
    ay = int(rng.integers(0, max(1, height - active_h)))
    # Pre-render the text lines once: on screen they are static pixels,
    # and only *new* lines cost bits (re-sampling them per frame would be
    # flicker, which no real screen capture has).
    max_lines = max(1, active_h // 3)
    text_lines = rng.uniform(30, 80, size=(max_lines, active_w))
    typing_cadence = max(2, int(round(fps / 5.0)))  # a new line every ~200ms
    luma = []
    for i in range(frames):
        frame = desktop.copy()
        lines_shown = 1 + min(i // typing_cadence, max_lines - 1)
        for line in range(lines_shown):
            y0 = ay + line * 3
            if y0 + 1 >= ay + active_h:
                break
            frame[y0 : y0 + 1, ax : ax + active_w] = text_lines[line]
        # Cursor blink (4-frame cadence).
        cx = ax + (lines_shown * 7) % max(1, active_w - 2)
        cy = ay + lines_shown * 3
        if cy + 3 < height and (i // 4) % 2 == 0:
            frame[cy : cy + 3, cx : cx + 2] = 0.0
        luma.append(frame)
    cu, cv = _flat_chroma(height, width, 126.0, 130.0, frames)
    return _finalize(luma, cu, cv, fps, name)


def animation(
    width: int,
    height: int,
    frames: int,
    fps: float,
    seed: int = 0,
    n_shapes: int = 4,
    speed: float = 0.5,
    name: str = "animation",
) -> Video:
    """Cartoon animation: flat-shaded shapes in smooth motion.

    Models animated content ("bike", "funny"): large flat regions compress
    well, but continuous motion keeps inter frames from degenerating to
    skips.  Entropy lands in the 1-3 bit/px/s band.
    """
    _check_geometry(width, height, frames)
    rng = _rng(seed)
    bg = _value_noise(rng, height, width, cell=max(width, height) // 2, low=90, high=180)
    shapes = []
    for _ in range(n_shapes):
        shapes.append(
            {
                "x": rng.uniform(0, width),
                "y": rng.uniform(0, height),
                "dx": rng.uniform(-speed, speed) * 2,
                "dy": rng.uniform(-speed, speed) * 2,
                "r": rng.uniform(min(width, height) / 14, min(width, height) / 7),
                "luma": rng.uniform(30, 230),
            }
        )
    yy, xx = np.mgrid[0:height, 0:width]
    luma = []
    for i in range(frames):
        frame = bg.copy()
        for shape in shapes:
            cx = (shape["x"] + shape["dx"] * i) % width
            cy = (shape["y"] + shape["dy"] * i) % height
            mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= shape["r"] ** 2
            frame[mask] = shape["luma"]
        luma.append(frame)
    cu = [
        np.full((height // 2, width // 2), 120.0 + 10 * math.sin(i / 7))
        for i in range(frames)
    ]
    cv = [
        np.full((height // 2, width // 2), 132.0 + 8 * math.cos(i / 9))
        for i in range(frames)
    ]
    return _finalize(luma, cu, cv, fps, name)


def natural(
    width: int,
    height: int,
    frames: int,
    fps: float,
    seed: int = 0,
    detail: float = 0.5,
    pan: float = 0.8,
    noise: float = 0.8,
    name: str = "natural",
) -> Video:
    """Natural camera footage: textured scene, slow pan, sensor noise.

    Models talking-head and scenery videos ("girl", "house", "landscape").
    ``detail`` in [0, 1] sets texture busyness, ``pan`` the camera speed in
    px/frame, ``noise`` the per-frame grain sigma.
    """
    _check_geometry(width, height, frames)
    rng = _rng(seed)
    margin = int(abs(pan) * frames) + 8
    tex_h, tex_w = height + margin, width + margin
    cell_fine = max(2, int((1.0 - detail) * 14) + 2)
    texture = 0.6 * _value_noise(rng, tex_h, tex_w, cell=max(tex_h, tex_w) // 3)
    texture += 0.4 * _value_noise(rng, tex_h, tex_w, cell=cell_fine)
    tex_u = _value_noise(rng, tex_h, tex_w, cell=max(tex_h, tex_w) // 4, low=100, high=156)
    tex_v = _value_noise(rng, tex_h, tex_w, cell=max(tex_h, tex_w) // 4, low=108, high=148)
    luma, cu, cv = [], [], []
    for i in range(frames):
        # Fractional camera pan: sub-pixel motion leaves real residuals.
        ox = abs(pan) * i
        oy = abs(pan) * i * 0.37
        window = _frac_window(texture, oy, ox, height, width)
        grain = rng.normal(0.0, noise, size=(height, width)) if noise > 0 else 0.0
        luma.append(window + grain)
        wu = _frac_window(tex_u, oy, ox, height, width)
        wv = _frac_window(tex_v, oy, ox, height, width)
        cu.append(wu.reshape(height // 2, 2, width // 2, 2).mean(axis=(1, 3)))
        cv.append(wv.reshape(height // 2, 2, width // 2, 2).mean(axis=(1, 3)))
    return _finalize(luma, cu, cv, fps, name)


def gaming(
    width: int,
    height: int,
    frames: int,
    fps: float,
    seed: int = 0,
    speed: float = 2.5,
    noise: float = 1.0,
    name: str = "gaming",
) -> Video:
    """Game capture: fast scrolling world, static HUD, sprite motion.

    Models "game1/2/3": a detailed world texture panning quickly, a static
    high-contrast HUD strip that always codes as skip, and sprites whose
    motion defeats simple translational search.  Entropy ~4-6 bit/px/s.
    """
    _check_geometry(width, height, frames)
    rng = _rng(seed)
    margin = int(speed * frames) + 16
    world = 0.5 * _value_noise(rng, height + margin, width + margin, cell=6)
    world += 0.5 * _value_noise(rng, height + margin, width + margin, cell=24)
    hud_h = max(4, height // 10)
    hud = _value_noise(rng, hud_h, width, cell=3, low=0, high=255)
    sprites = [
        {
            "x": rng.uniform(0, width),
            "y": rng.uniform(hud_h, height),
            "phase": rng.uniform(0, 2 * math.pi),
            "r": max(3, min(width, height) // 16),
            "luma": rng.uniform(0, 255),
        }
        for _ in range(5)
    ]
    yy, xx = np.mgrid[0:height, 0:width]
    luma = []
    for i in range(frames):
        # Fractional scroll: like a real engine camera, not grid-locked.
        frame = _frac_window(world, 0.21 * speed * i, speed * i, height, width)
        for sprite in sprites:
            cx = (sprite["x"] + 10 * math.sin(sprite["phase"] + i / 3)) % width
            cy = hud_h + (
                (sprite["y"] + 6 * math.cos(sprite["phase"] + i / 4)) % (height - hud_h)
            )
            mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= sprite["r"] ** 2
            frame[mask] = sprite["luma"]
        if noise > 0:
            frame = frame + rng.normal(0.0, noise, size=(height, width))
        frame[:hud_h, :] = hud  # the HUD overlay renders on top, noise-free
        luma.append(frame)
    cu = [
        _value_noise(_rng(seed + 1), height // 2, width // 2, cell=8, low=110, high=146)
        for _ in range(frames)
    ]
    cv = [
        _value_noise(_rng(seed + 2), height // 2, width // 2, cell=8, low=112, high=144)
        for _ in range(frames)
    ]
    return _finalize(luma, cu, cv, fps, name)


def sports(
    width: int,
    height: int,
    frames: int,
    fps: float,
    seed: int = 0,
    speed: float = 4.0,
    cut_seconds: float = 1.2,
    noise: float = 1.8,
    name: str = "sports",
) -> Video:
    """High-motion event footage: the highest-entropy class.

    Models "cat", "holi", "cricket", "hall": fast incoherent camera motion,
    heavy crowd texture, per-frame grain, and frequent scene cuts that force
    intra frames.  Entropy > 6 bit/px/s.
    """
    _check_geometry(width, height, frames)
    rng = _rng(seed)
    per_cut = max(2, int(round(cut_seconds * fps)))
    margin = int(speed * per_cut) + 16
    luma, cu, cv = [], [], []
    scene = None
    for i in range(frames):
        if i % per_cut == 0 or scene is None:
            scene = 0.5 * _value_noise(rng, height + margin, width + margin, cell=4)
            scene += 0.5 * _value_noise(rng, height + margin, width + margin, cell=12)
            direction = rng.uniform(-1, 1, size=2)
            norm = float(np.hypot(*direction)) or 1.0
            direction = direction / norm
        j = i % per_cut
        ox = abs(direction[0]) * speed * j
        oy = abs(direction[1]) * speed * j
        window = _frac_window(scene, oy, ox, height, width)
        # Wobble: per-frame jitter makes motion vectors incoherent.
        jitter = rng.normal(0, noise, size=(height, width))
        luma.append(window + jitter)
        cu.append(
            _value_noise(rng, height // 2, width // 2, cell=10, low=104, high=152)
        )
        cv.append(
            _value_noise(rng, height // 2, width // 2, cell=10, low=106, high=150)
        )
    return _finalize(luma, cu, cv, fps, name)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

CONTENT_CLASSES: Dict[str, Callable[..., Video]] = {
    "slideshow": slideshow,
    "screencast": screencast,
    "animation": animation,
    "natural": natural,
    "gaming": gaming,
    "sports": sports,
}


def synthesize(
    content: str,
    width: int,
    height: int,
    frames: int,
    fps: float,
    seed: int = 0,
    name: Optional[str] = None,
    **params,
) -> Video:
    """Generate a clip of the named content class.

    Args:
        content: One of :data:`CONTENT_CLASSES`.
        width, height: Actual (stored) resolution; must be even, >= 16.
        frames: Number of frames.
        fps: Frame rate.
        seed: Deterministic seed.
        name: Optional clip name; defaults to the content class.
        **params: Class-specific knobs (see the individual generators).

    Returns:
        A :class:`~repro.video.video.Video`.
    """
    try:
        generator = CONTENT_CLASSES[content]
    except KeyError:
        raise ValueError(
            f"unknown content class {content!r}; expected one of "
            f"{sorted(CONTENT_CLASSES)}"
        ) from None
    return generator(
        width, height, frames, fps, seed=seed, name=name or content, **params
    )
