"""The ``repro lint`` subcommand.

Usage::

    PYTHONPATH=src python -m repro.cli lint src/repro
    PYTHONPATH=src python -m repro.cli lint src/repro --format json
    PYTHONPATH=src python -m repro.cli lint --fail-on warning src/repro

Exit status is 1 when any finding meets the fail threshold (``error`` by
default, override with ``--fail-on`` or ``fail-on`` in pyproject), else 0
— that is the whole CI contract.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import replace

from repro.lint.config import load_config
from repro.lint.engine import lint_paths
from repro.lint.model import Severity
from repro.lint.reporters import json_report, text_report


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to the ``repro lint`` parser."""
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format",
    )
    parser.add_argument(
        "--fail-on", choices=tuple(s.label for s in Severity), default=None,
        help="minimum severity that fails the run (default: error)",
    )
    parser.add_argument(
        "--config", default=None, metavar="PYPROJECT",
        help="explicit pyproject.toml (default: nearest to the first path)",
    )


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the linter and print a report; returns the process exit code."""
    start_dir = None
    if args.paths:
        first = args.paths[0]
        start_dir = first if os.path.isdir(first) else os.path.dirname(first) or "."
    config = load_config(pyproject_path=args.config, start_dir=start_dir)
    if args.fail_on is not None:
        config = replace(config, fail_on=Severity.parse(args.fail_on))
    result = lint_paths(args.paths, config)
    report = json_report(result) if args.format == "json" else text_report(result)
    print(report)
    return result.exit_code(config)
