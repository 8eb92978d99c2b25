"""Reproducer corpus: violation-triggering inputs saved for replay.

Each case is a pair of files named by content hash -- ``case-<sha>.bin``
(the input bytes) and ``case-<sha>.json`` (how the campaign produced it)
-- so re-finding the same input is idempotent and a corpus directory can
be committed, diffed, and replayed across machines.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, List, Tuple

from repro.record import write_record

__all__ = ["save_case", "load_corpus"]


def save_case(
    directory: "Path | str", data: bytes, meta: Dict[str, object]
) -> Path:
    """Persist one reproducer; returns the path of the ``.bin`` file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256(data).hexdigest()[:16]
    stem = directory / f"case-{digest}"
    bin_path = stem.with_suffix(".bin")
    bin_path.write_bytes(data)
    write_record(stem.with_suffix(".json"), meta)
    return bin_path


def load_corpus(directory: "Path | str") -> List[Tuple[Path, bytes]]:
    """All saved reproducers, sorted by file name for stable replay order."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return [(p, p.read_bytes()) for p in sorted(directory.glob("case-*.bin"))]
