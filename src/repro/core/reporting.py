"""Result reporting per the paper's rules (Section 4.3).

Each transcode reports three values -- speed, bitrate, quality -- per
video.  Scores are computed only when the scenario constraint holds, and
results are *never* aggregated into averages: "significant information
would be lost"; providers weight videos by their own corpus.  The one
helper here formats a per-video table and refuses to average.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.scenarios import ScenarioScore

__all__ = ["format_scores"]


def format_scores(scores: Sequence[ScenarioScore], title: str = "") -> str:
    """ASCII table of per-video ratios and scores ('-' = constraint failed)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"{'video':<16} {'S':>8} {'B':>8} {'Q':>8} {'score':>9}")
    for s in scores:
        cell = f"{s.score:9.2f}" if s.score is not None else f"{'-':>9}"
        lines.append(
            f"{s.video_name:<16} {s.ratios.speed:8.2f} {s.ratios.bitrate:8.2f} "
            f"{s.ratios.quality:8.3f} {cell}"
        )
    return "\n".join(lines)
