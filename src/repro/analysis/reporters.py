"""Reporters: render a :class:`LintReport` as text or machine-stable JSON.

The JSON form is versioned and fully sorted (keys and findings), so two
runs over the same tree produce identical bytes -- CI can diff reports, and
downstream tooling can parse them without caring about dict ordering.
"""

from __future__ import annotations

import json

from repro.analysis.engine import LintReport

__all__ = ["render_text", "render_json", "JSON_REPORT_VERSION"]

JSON_REPORT_VERSION = 2


def render_text(report: LintReport) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.to_text() for finding in report.findings]
    summary = (
        f"vlint: {len(report.findings)} finding"
        f"{'' if len(report.findings) == 1 else 's'}"
        f" in {report.files_checked} file"
        f"{'' if report.files_checked == 1 else 's'}"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-parseable report; byte-stable for identical inputs."""
    payload = {
        "version": JSON_REPORT_VERSION,
        "files_checked": report.files_checked,
        "ok": report.ok,
        "findings": [f.to_dict() for f in report.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
