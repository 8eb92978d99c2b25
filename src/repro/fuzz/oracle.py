"""The decode oracle: invariants every input, however mangled, must keep.

For any byte string the decoder must do exactly one of three things:

* **decode** it cleanly,
* **conceal** damaged frames (strict=False) and still emit
  ``header.n_frames`` finite frames, or
* **reject** it with a :class:`~repro.codec.errors.BitstreamError`
  subclass.

Anything else is a *violation*: a foreign exception escaping, non-finite
pixels, a frame-count mismatch, or strict/lenient modes disagreeing about
a stream neither considers damaged.  Unbounded work is prevented
structurally -- every decode loop is bounded by header geometry, and the
``max_pixels`` budget caps what a crafted header may demand -- so a
campaign's runtime is bounded by construction rather than by timers
(which ``src/`` may not read anyway).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codec.decoder import DecodeResult, Decoder
from repro.codec.errors import BitstreamError

__all__ = ["OracleVerdict", "run_oracle", "DEFAULT_MAX_PIXELS"]

#: Total-luma-pixel budget handed to the decoder (~4 Mpixel): far above
#: any seed stream, far below anything that could stall a campaign.
DEFAULT_MAX_PIXELS = 1 << 22


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of one oracle evaluation.

    ``outcome`` is one of ``"ok"``, ``"concealed"``, ``"rejected"``,
    ``"violation"``; ``detail`` is a deterministic human-readable note.
    """

    outcome: str
    detail: str = ""

    @property
    def is_violation(self) -> bool:
        return self.outcome == "violation"


def _frames_match(a: DecodeResult, b: DecodeResult) -> bool:
    return all(
        np.array_equal(fa.y, fb.y)
        and np.array_equal(fa.u, fb.u)
        and np.array_equal(fa.v, fb.v)
        for fa, fb in zip(a.video, b.video)
    )


def run_oracle(
    data: bytes,
    max_pixels: int = DEFAULT_MAX_PIXELS,
    check_strict: bool = True,
) -> OracleVerdict:
    """Evaluate the decode oracle on one input."""
    decoder = Decoder()
    try:
        lenient = decoder.decode(data, strict=False, max_pixels=max_pixels)
    except BitstreamError as exc:
        return OracleVerdict("rejected", type(exc).__name__)
    except Exception as exc:  # noqa: BLE001 -- the leak is the finding
        return OracleVerdict(
            "violation", f"decode leaked {type(exc).__name__}: {exc}"
        )

    if len(lenient.video) != lenient.header.n_frames:
        return OracleVerdict(
            "violation",
            f"decoded {len(lenient.video)} frames, header promised "
            f"{lenient.header.n_frames}",
        )
    for index, frame in enumerate(lenient.video):
        for plane in (frame.y, frame.u, frame.v):
            if not np.isfinite(plane).all():
                return OracleVerdict(
                    "violation", f"non-finite pixels in frame {index}"
                )

    if check_strict:
        strict_failed = False
        try:
            strict = decoder.decode(data, strict=True, max_pixels=max_pixels)
        except BitstreamError:
            strict_failed = True
            strict = None
        except Exception as exc:  # noqa: BLE001
            return OracleVerdict(
                "violation",
                f"strict decode leaked {type(exc).__name__}: {exc}",
            )
        if lenient.frames_concealed == 0:
            if strict_failed:
                return OracleVerdict(
                    "violation",
                    "strict rejected a stream the lenient decoder decoded "
                    "without concealment",
                )
            if strict is not None and not _frames_match(lenient, strict):
                return OracleVerdict(
                    "violation", "strict and lenient decodes disagree"
                )
        elif not strict_failed:
            return OracleVerdict(
                "violation",
                "lenient decoder concealed frames but strict decode "
                "raised nothing",
            )

    if lenient.frames_concealed:
        return OracleVerdict(
            "concealed",
            f"{lenient.frames_concealed}/{len(lenient.concealed)} frames",
        )
    return OracleVerdict("ok")
