"""``repro pipeline`` CLI smoke tests."""

import json

from repro.cli import build_parser, list_experiments, main


class TestParsing:
    def test_pipeline_listed(self):
        assert "pipeline" in list_experiments()

    def test_defaults(self):
        args = build_parser().parse_args(["pipeline"])
        assert args.command == "pipeline"
        assert args.strategy == "pipeline"
        assert args.seed == 0
        assert args.chunks == 4
        assert not args.head_to_head
        assert not args.json
        assert args.workers is None


class TestRuns:
    def test_single_run_table(self, capsys):
        assert main(["pipeline", "--stripes", "4", "--no-disturb"]) == 0
        out = capsys.readouterr().out
        assert "stripes_encoded" in out
        assert "pipeline run clean" in out

    def test_single_run_json(self, capsys):
        assert main(
            ["pipeline", "--stripes", "4", "--no-disturb", "--json"]
        ) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["clean"] is True
        assert result["strategy"] == "pipeline"
        assert result["parity_verified"] == result["stripes_encoded"]

    def test_download_strategy_run(self, capsys):
        assert main(
            ["pipeline", "--strategy", "ear", "--stripes", "4",
             "--no-disturb", "--json"]
        ) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["strategy"] == "download"

    def test_head_to_head_table(self, capsys):
        assert main(
            ["pipeline", "--head-to-head", "--stripes", "4",
             "--no-disturb"]
        ) == 0
        out = capsys.readouterr().out
        for contender in ("rr", "ear", "pipeline"):
            assert contender in out
        assert "encode_window" in out

    def test_head_to_head_workers_two_matches_in_process(self, capsys):
        argv = ["pipeline", "--head-to-head", "--stripes", "4",
                "--no-disturb", "--json"]
        assert main(argv) == 0
        in_process = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        pooled = capsys.readouterr().out
        assert json.loads(in_process) == json.loads(pooled)
