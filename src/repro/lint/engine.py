"""The lint driver: file discovery, rule execution, suppressions.

Suppression syntax (mirrors the usual linter conventions):

* ``# reprolint: disable=DET001`` on a line suppresses the listed rules
  (comma separated, or ``all``) for findings anchored on that line;
* ``# reprolint: disable-file=RES001`` anywhere in a file suppresses the
  listed rules (or ``all``) for the whole file.

Suppressions are honoured after severity overrides, so a suppressed
finding never reaches a reporter or the exit code.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.config import LintConfig
from repro.lint.model import (
    FileContext,
    Finding,
    Severity,
    all_rules,
)

#: Pseudo rule id attached to files that fail to parse.
PARSE_RULE_ID = "PARSE001"

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable-file|disable)\s*=\s*"
    r"(?P<rules>all|[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)

#: Matches every rule id when a suppression says ``all``.
_ALL = "*"


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    def count(self, severity: Severity) -> int:
        """Findings at exactly ``severity``."""
        return sum(1 for f in self.findings if f.severity == severity)

    def count_at_least(self, severity: Severity) -> int:
        """Findings at or above ``severity``."""
        return sum(1 for f in self.findings if f.severity >= severity)

    def exit_code(self, config: LintConfig) -> int:
        """1 when any finding meets the configured fail threshold."""
        return 1 if self.count_at_least(config.fail_on) else 0


def parse_suppressions(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Extract (per-line, per-file) suppression tables from source text.

    Returns:
        ``(line_table, file_table)`` where ``line_table`` maps a 1-based
        line number to the rule ids suppressed there and ``file_table``
        holds file-wide suppressed ids; ``"*"`` means every rule.
    """
    per_line: Dict[int, Set[str]] = {}
    per_file: Set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "#" not in line:
            continue
        for match in _SUPPRESS_RE.finditer(line):
            rules_text = match.group("rules")
            rules = (
                {_ALL}
                if rules_text == "all"
                else {r.strip().upper() for r in rules_text.split(",") if r.strip()}
            )
            if match.group("kind") == "disable-file":
                per_file |= rules
            else:
                per_line.setdefault(lineno, set()).update(rules)
    return per_line, per_file


def _suppressed(
    finding: Finding,
    per_line: Dict[int, Set[str]],
    per_file: Set[str],
) -> bool:
    if _ALL in per_file or finding.rule_id in per_file:
        return True
    on_line = per_line.get(finding.line, ())
    return _ALL in on_line or finding.rule_id in on_line


def lint_source(
    source: str,
    path: str = "<string>",
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Lint one module's text; the core entry point everything else wraps.

    Parse failures are reported as a single ``PARSE001`` error finding
    rather than raised, so one broken file cannot hide findings in the
    rest of a run.
    """
    config = config if config is not None else LintConfig()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule_id=PARSE_RULE_ID,
                severity=Severity.ERROR,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    ctx = FileContext(path=path, source=source, tree=tree, config=config)
    per_line, per_file = parse_suppressions(source)
    findings: List[Finding] = []
    for rule_cls in all_rules():
        if rule_cls.rule_id in config.disabled_rules:
            continue
        for finding in rule_cls().check(ctx):
            if not _suppressed(finding, per_line, per_file):
                findings.append(finding)
    return sorted(findings)


def iter_python_files(
    paths: Sequence[str], config: Optional[LintConfig] = None
) -> List[str]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    config = config if config is not None else LintConfig()
    seen: Set[str] = set()
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                dirs[:] = [d for d in dirs if d != "__pycache__"]
                for name in sorted(names):
                    if name.endswith(".py"):
                        candidate = os.path.join(root, name)
                        if candidate not in seen and not config.is_excluded(candidate):
                            seen.add(candidate)
                            out.append(candidate)
        elif path.endswith(".py") or os.path.isfile(path):
            if path not in seen and not config.is_excluded(path):
                seen.add(path)
                out.append(path)
    return out


def lint_paths(
    paths: Sequence[str], config: Optional[LintConfig] = None
) -> LintResult:
    """Lint every Python file under ``paths`` (files or directories)."""
    config = config if config is not None else LintConfig()
    result = LintResult()
    for file_path in iter_python_files(paths, config):
        try:
            with open(file_path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            result.findings.append(
                Finding(
                    path=file_path,
                    line=1,
                    col=0,
                    rule_id=PARSE_RULE_ID,
                    severity=Severity.ERROR,
                    message=f"file is unreadable: {exc}",
                )
            )
            continue
        result.files_checked += 1
        result.findings.extend(lint_source(source, file_path, config))
    result.findings.sort()
    return result
