"""Finding reporters: human text and machine JSON."""

from __future__ import annotations

import json
from typing import Dict, List

from repro.lint.engine import LintResult
from repro.lint.model import Severity


def text_report(result: LintResult) -> str:
    """GCC-style ``path:line:col: severity RID message`` lines + summary."""
    lines: List[str] = [
        f"{f.path}:{f.line}:{f.col + 1}: {f.severity.label} "
        f"{f.rule_id} {f.message}"
        for f in result.findings
    ]
    counts = _severity_counts(result)
    summary = ", ".join(
        f"{counts[sev.label]} {sev.label}(s)"
        for sev in sorted(Severity, reverse=True)
        if counts[sev.label]
    )
    if not summary:
        summary = "no findings"
    lines.append(
        f"checked {result.files_checked} file(s): {summary}"
    )
    return "\n".join(lines)


def json_report(result: LintResult) -> str:
    """A JSON document: findings plus per-severity counts."""
    payload = {
        "files_checked": result.files_checked,
        "counts": _severity_counts(result),
        "findings": [f.to_dict() for f in result.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _severity_counts(result: LintResult) -> Dict[str, int]:
    return {sev.label: result.count(sev) for sev in Severity}

