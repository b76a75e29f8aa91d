"""The linter's own gate: ``repro lint --fail-on warning src/repro``
must land clean.

This is the same invocation CI runs; keeping it in the test suite means a
regression shows up in ``pytest`` before it shows up in the lint job.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.lint import Severity, lint_paths, load_config

REPO = Path(__file__).resolve().parents[2]


class TestSelfCheck:
    def test_no_error_findings_in_process(self):
        config = load_config(pyproject_path=str(REPO / "pyproject.toml"))
        result = lint_paths([str(REPO / "src" / "repro")], config)
        errors = [f for f in result.findings if f.severity >= Severity.ERROR]
        assert errors == [], "\n".join(
            f"{f.path}:{f.line}: {f.rule_id} {f.message}" for f in errors
        )
        assert result.files_checked > 50  # the whole package was walked

    def test_cli_gate_exits_zero(self):
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--fail-on",
             "warning", "src/repro", "--format", "json"],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["findings"] == []
