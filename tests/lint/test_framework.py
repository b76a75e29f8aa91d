"""Framework tests: registry, suppression parsing, config, reporters,
exit codes, and the CLI plumbing."""

import json

import pytest

from repro.cli import main as repro_main
from repro.lint import (
    LintConfig,
    Severity,
    all_rules,
    get_rule,
    json_report,
    lint_paths,
    lint_source,
    load_config,
    text_report,
)
from repro.lint.engine import PARSE_RULE_ID, LintResult, parse_suppressions
from repro.lint.model import Rule, register

BAD_DEFAULT = "def f(items=[]):\n    return items\n"


class TestRegistry:
    def test_rules_sorted_and_unique(self):
        ids = [r.rule_id for r in all_rules()]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_expected_rule_pack(self):
        ids = {r.rule_id for r in all_rules()}
        assert {
            "DET001", "DET002", "DET003",
            "RES001", "EXC001", "FLT001",
            "HYG001", "HYG002",
        } <= ids

    def test_get_rule_unknown(self):
        with pytest.raises(KeyError):
            get_rule("NOPE999")

    def test_register_rejects_missing_id(self):
        with pytest.raises(ValueError):
            register(type("Anon", (Rule,), {}))

    def test_register_rejects_duplicate_id(self):
        with pytest.raises(ValueError):
            register(type("Clone", (Rule,), {"rule_id": "DET001"}))


class TestSuppressions:
    def test_line_table(self):
        per_line, per_file = parse_suppressions(
            "x = 1  # reprolint: disable=DET001, det003\n"
        )
        assert per_line == {1: {"DET001", "DET003"}}
        assert per_file == set()

    def test_file_table_and_all(self):
        per_line, per_file = parse_suppressions(
            "# reprolint: disable-file=RES001\n"
            "y = 2  # reprolint: disable=all\n"
        )
        assert per_file == {"RES001"}
        assert per_line == {2: {"*"}}

    def test_disable_all_file_silences_everything(self):
        source = "# reprolint: disable-file=all\n" + BAD_DEFAULT
        assert lint_source(source) == []


class TestEngine:
    def test_syntax_error_becomes_parse_finding(self):
        findings = lint_source("def broken(:\n", "oops.py")
        assert len(findings) == 1
        assert findings[0].rule_id == PARSE_RULE_ID
        assert findings[0].severity is Severity.ERROR

    def test_disabled_rule_not_run(self):
        config = LintConfig(disabled_rules=frozenset({"HYG001"}))
        assert lint_source(BAD_DEFAULT, config=config) == []

    def test_severity_override_applies(self):
        config = LintConfig(severity_overrides={"HYG001": Severity.WARNING})
        findings = lint_source(BAD_DEFAULT, config=config)
        assert findings and findings[0].severity is Severity.WARNING

    def test_findings_sorted_by_location(self):
        source = (
            "def b(items=[]):\n"
            "    return items\n"
            "def a(other=[]):\n"
            "    return other\n"
        )
        findings = lint_source(source)
        assert [f.line for f in findings] == sorted(f.line for f in findings)

    def test_exit_code_threshold(self):
        warning = lint_source(
            "def pick(list):\n    return list\n"
        )  # HYG002 is warning severity
        result = LintResult(findings=warning, files_checked=1)
        assert result.exit_code(LintConfig()) == 0
        assert result.exit_code(LintConfig(fail_on=Severity.WARNING)) == 1

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "ok.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "bad.py").write_text(BAD_DEFAULT)
        result = lint_paths([str(tmp_path)])
        assert result.files_checked == 2
        assert [f.rule_id for f in result.findings] == ["HYG001"]

    def test_exclude_substring(self, tmp_path):
        (tmp_path / "skipme").mkdir()
        (tmp_path / "skipme" / "bad.py").write_text(BAD_DEFAULT)
        config = LintConfig(exclude=("skipme",))
        result = lint_paths([str(tmp_path)], config)
        assert result.files_checked == 0


class TestConfig:
    def test_missing_file_yields_defaults(self, tmp_path):
        config = load_config(pyproject_path=str(tmp_path / "nope.toml"))
        assert config == LintConfig()

    def test_full_section(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.reprolint]\n"
            'disable = ["hyg002"]\n'
            'exclude = ["vendored"]\n'
            'fail-on = "warning"\n'
            "[tool.reprolint.severity]\n"
            'FLT001 = "info"\n'
            "[tool.reprolint.det002]\n"
            'paths = ["sim"]\n'
        )
        config = load_config(pyproject_path=str(pyproject))
        assert config.disabled_rules == frozenset({"HYG002"})
        assert config.exclude == ("vendored",)
        assert config.fail_on is Severity.WARNING
        assert config.severity_overrides == {"FLT001": Severity.INFO}
        assert config.wall_clock_paths == ("sim",)

    def test_upward_search(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.reprolint]\nfail-on = "warning"\n'
        )
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        config = load_config(start_dir=str(nested))
        assert config.fail_on is Severity.WARNING

    def test_malformed_toml_yields_defaults(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("not [ valid\n")
        assert load_config(pyproject_path=str(pyproject)) == LintConfig()


class TestReporters:
    def result(self):
        return LintResult(findings=lint_source(BAD_DEFAULT, "pkg/m.py"), files_checked=1)

    def test_text_report(self):
        report = text_report(self.result())
        assert "pkg/m.py:1:" in report
        assert "HYG001" in report
        assert "1 error(s)" in report

    def test_text_report_clean(self):
        assert "no findings" in text_report(LintResult(files_checked=3))

    def test_json_report_round_trips(self):
        payload = json.loads(json_report(self.result()))
        assert payload["files_checked"] == 1
        assert payload["counts"]["error"] == 1
        row = payload["findings"][0]
        assert row["rule"] == "HYG001"
        assert row["severity"] == "error"


class TestCli:
    def test_exit_one_on_error_finding(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_DEFAULT)
        assert repro_main(["lint", str(bad)]) == 1
        assert "HYG001" in capsys.readouterr().out

    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        ok = tmp_path / "ok.py"
        ok.write_text("x = 1\n")
        assert repro_main(["lint", str(ok)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_json_format_flag(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_DEFAULT)
        assert repro_main(["lint", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "HYG001"

    def test_fail_on_flag_loosens_gate(self, tmp_path, capsys):
        warn = tmp_path / "warn.py"
        warn.write_text("def pick(list):\n    return list\n")
        assert repro_main(["lint", str(warn)]) == 0
        assert repro_main(["lint", str(warn), "--fail-on", "warning"]) == 1
        capsys.readouterr()

    def test_repro_cli_has_lint_subcommand(self, tmp_path, capsys):
        ok = tmp_path / "ok.py"
        ok.write_text("x = 1\n")
        assert repro_main(["lint", str(ok)]) == 0
        assert "no findings" in capsys.readouterr().out
