"""Byte-stable records: the one place that knows their format.

Every record the repo pins (``BENCH_*.json``, ``SLOReport.to_json()``,
``coefficients.json``) is JSON with sorted keys and a two-space indent,
one trailing newline when it lands in a file, and is fingerprinted by
SHA-256 over its UTF-8 text.  A report's JSON *is* its dataclass
fields: :func:`jsonable` derives it, rounding each float once to
nine decimals -- immune to representation noise without losing
anything a latency SLO cares about (1e-9 s).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

__all__ = ["jsonable", "sha256_hex", "stable_json", "write_record"]

_DECIMALS = 9


def jsonable(obj):
    """``obj`` as plain JSON values: dataclasses by field, floats rounded."""
    if isinstance(obj, float):
        return round(obj, _DECIMALS)
    if dataclasses.is_dataclass(obj):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {key: jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(value) for value in obj]
    return obj


def stable_json(obj, indent=2) -> str:
    """The record text; ``indent=None`` is the one-line form some digests use."""
    return json.dumps(obj, sort_keys=True, indent=indent)


def sha256_hex(text: str) -> str:
    """A record's digest: SHA-256 over its UTF-8 text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_record(path, obj) -> None:
    """Write ``obj`` as a record file (the text plus one newline)."""
    Path(path).write_text(stable_json(obj) + "\n", encoding="utf-8")
