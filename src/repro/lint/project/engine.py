"""The project lint driver behind ``repro lint --project`` / ``--changed``.

One run does, in order:

1. discover files (the per-file engine's :func:`iter_python_files`,
   so excludes and ordering match exactly);
2. per file: serve facts + per-file findings from the
   :class:`~repro.lint.project.cache.LintCache` when the fingerprint
   matches, else parse once, run the per-file rules, extract facts, and
   store the entry.  Counted work lands in ``lint.files_analyzed`` /
   ``lint.files_cached`` / ``lint.functions_analyzed`` so
   ``tests/lint/test_project_cache.py`` can assert cache behaviour
   without wall-clock flakiness;
3. build the :class:`~repro.lint.project.model.ProjectModel` and run
   every registered project rule, filtering each finding through the
   suppression tables of its *anchor* file — a cross-file finding
   anchored in ``a.py`` honours ``a.py``'s line/file suppressions no
   matter which module caused it;
4. with ``changed_only``, report only findings anchored in files whose
   cache key moved since the manifest was last written.

Warm runs are byte-identical to cold runs: cached per-file findings are
stored post-suppression in engine order, and the model is rebuilt from
facts that serialise canonically.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.config import LintConfig
from repro.lint.engine import (
    PARSE_RULE_ID,
    LintResult,
    _suppressed,
    iter_python_files,
    parse_suppressions,
)
from repro.lint.model import FileContext, Finding, Severity, all_rules
from repro.lint.project.cache import CachedFile, LintCache
from repro.lint.project.facts import FileFacts, extract_file_facts
from repro.lint.project.model import ProjectModel, build_project_model
from repro.sim.metrics import PERF


@dataclass
class ProjectLintResult(LintResult):
    """Outcome of one project lint run.

    Extends the per-file :class:`LintResult` with cache accounting and
    the built model (tests and tooling introspect it).
    """

    files_analyzed: int = 0
    files_cached: int = 0
    functions_analyzed: int = 0
    changed_files: List[str] = field(default_factory=list)
    model: Optional[ProjectModel] = None


def module_name_for(path: str) -> str:
    """The dotted module name of a file, by walking up ``__init__.py``.

    ``src/repro/cluster/block.py`` → ``repro.cluster.block`` (``src``
    has no ``__init__.py``, so the package root is ``repro``).  A file
    outside any package is its own single-segment module.
    """
    absolute = os.path.abspath(path)
    directory, name = os.path.split(absolute)
    parts = [name[:-3] if name.endswith(".py") else name]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        if not package:
            break
        parts.append(package)
    parts.reverse()
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts else "__main__"


def _analyze_file(
    path: str, module: str, source: str, config: LintConfig
) -> Tuple[Optional[CachedFile], List[Finding]]:
    """Parse + per-file lint + fact extraction for one file.

    Returns ``(entry, parse_findings)``; a syntax error yields no entry
    and one ``PARSE001`` finding (never cached — a broken file should be
    re-examined every run).
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        finding = Finding(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule_id=PARSE_RULE_ID,
            severity=Severity.ERROR,
            message=f"file does not parse: {exc.msg}",
        )
        return None, [finding]
    per_line, per_file = parse_suppressions(source)
    ctx = FileContext(path=path, source=source, tree=tree, config=config)
    findings: List[Finding] = []
    for rule_cls in all_rules():
        if getattr(rule_cls, "is_project", False):
            continue
        if rule_cls.rule_id in config.disabled_rules:
            continue
        for finding in rule_cls().check(ctx):
            if not _suppressed(finding, per_line, per_file):
                findings.append(finding)
    facts = extract_file_facts(path, module, tree)
    entry = CachedFile(
        facts=facts,
        findings=tuple(sorted(findings)),
        suppress_lines=tuple(
            (line, tuple(sorted(rules)))
            for line, rules in sorted(per_line.items())
        ),
        suppress_file=tuple(sorted(per_file)),
    )
    return entry, []


def lint_project(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    cache: Optional[LintCache] = None,
    changed_only: bool = False,
) -> ProjectLintResult:
    """Whole-program lint over every Python file under ``paths``.

    Args:
        paths: Files or directories to analyze as one project.
        config: Effective configuration (defaults apply when None).
        cache: Incremental cache; None disables caching entirely.
        changed_only: Report only findings anchored in files whose cache
            key differs from the manifest of the previous run (requires
            a cache; without one every file counts as changed).
    """
    config = config if config is not None else LintConfig()
    result = ProjectLintResult()
    manifest = cache.manifest() if cache is not None else {}
    new_manifest: Dict[str, str] = {}
    entries: Dict[str, CachedFile] = {}
    facts_list: List[FileFacts] = []
    changed: List[str] = []

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
            changed.append(file_path)
            continue
        result.files_checked += 1
        module = module_name_for(file_path)
        entry: Optional[CachedFile] = None
        key = ""
        if cache is not None:
            key = cache.key_for(module, source, config)
            if manifest.get(file_path) != key:
                changed.append(file_path)
            entry = cache.get(key)
        else:
            changed.append(file_path)
        if entry is not None:
            result.files_cached += 1
            PERF.bump("lint.files_cached")
        else:
            entry, parse_findings = _analyze_file(
                file_path, module, source, config
            )
            if entry is None:
                result.findings.extend(parse_findings)
                continue
            result.files_analyzed += 1
            result.functions_analyzed += len(entry.facts.functions)
            PERF.bump("lint.files_analyzed")
            PERF.bump("lint.functions_analyzed", len(entry.facts.functions))
            if cache is not None:
                cache.put(key, entry)
        if cache is not None:
            new_manifest[file_path] = key
        entries[file_path] = entry
        facts_list.append(entry.facts)
        result.findings.extend(entry.findings)

    model = build_project_model(facts_list)
    result.model = model
    for rule_cls in all_rules():
        if not getattr(rule_cls, "is_project", False):
            continue
        if rule_cls.rule_id in config.disabled_rules:
            continue
        for finding in rule_cls().check_project(model, config):
            anchor = entries.get(finding.path)
            if anchor is not None and _suppressed(
                finding, anchor.line_table(), anchor.file_table()
            ):
                continue
            result.findings.append(finding)

    if changed_only:
        changed_set: Set[str] = set(changed)
        result.findings = [
            f for f in result.findings if f.path in changed_set
        ]
    result.changed_files = sorted(changed)
    result.findings.sort()
    if cache is not None:
        cache.write_manifest(new_manifest)
    return result
