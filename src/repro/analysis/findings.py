"""Structured lint findings.

Every checker reports :class:`Finding` objects -- never raw strings -- so
the engine can sort, deduplicate, and render them through any reporter
without re-parsing messages.  Findings order deterministically
(path, line, column, rule) so text and JSON reports are byte-stable across
runs, process pools, and machines: the same property the rest of the repo
demands of transcode reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Tuple

__all__ = ["Severity", "Finding"]


class Severity(enum.Enum):
    """How bad a finding is.

    Every finding is an ``ERROR``: it breaks a reproducibility/symmetry
    contract and fails the lint gate.
    """

    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    column: int
    message: str
    severity: Severity = Severity.ERROR

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.rule)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (stable key order via sort_keys)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "severity": self.severity.value,
        }

    def to_text(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.rule} [{self.severity.value}] {self.message}"
        )
