"""CLI smoke tests: every command parses and the cheap ones run."""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, list_experiments, main


class TestParser:
    def test_every_experiment_has_a_subcommand(self):
        parser = build_parser()
        for name in list_experiments():
            args = parser.parse_args([name])
            assert args.command == name

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3", "fig13a", "fig15"):
            assert name in out
        assert "bench" not in out

    def test_python_dash_m_repro_matches_main(self, capsys):
        # ``python -m repro`` (the documented entry point) runs __main__.py.
        repo = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            cwd=repo, env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert main(["list"]) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_bench_is_not_a_subcommand(self, capsys):
        # Wall time is benchmarks/e2e, the figure suites run under pytest.
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestCheapCommands:
    def test_fig3(self, capsys):
        assert main(["fig3", "--min-racks", "16", "--max-racks", "20"]) == 0
        out = capsys.readouterr().out
        assert "k=12" in out
        assert "16" in out

    BAD_RACKS = (
        (["--min-racks", "0"], "--min-racks: must be at least 2"),
        (["--min-racks", "50", "--max-racks", "40"],
         "--min-racks must not exceed --max-racks"),
    )

    @pytest.mark.parametrize(
        "options, message", BAD_RACKS, ids=[" ".join(o) for o, _ in BAD_RACKS]
    )
    def test_unusable_fig3_rack_range_is_a_usage_error(
        self, options, message, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3"] + options)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_theorem1(self, capsys):
        assert main(["theorem1", "--stripes", "30"]) == 0
        out = capsys.readouterr().out
        assert "bound" in out
        assert "1.900" in out  # the paper's anchor at i=10, R=20

    @pytest.mark.parametrize("racks", ["0", "3", "13"])
    def test_theorem1_racks_below_the_stripe_width_is_a_usage_error(
        self, racks, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["theorem1", "--racks", racks])
        assert excinfo.value.code == 2
        assert "--racks must be at least the stripe width n = k + 4 = 14" in (
            capsys.readouterr().err
        )

    def test_fig8a_tiny(self, capsys):
        assert main(["fig8a", "--stripes", "8", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "(12,10)" in out
        assert "gain" in out

    def test_fig14_tiny(self, capsys):
        assert main(["fig14", "--blocks", "500", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "rank 1" in out

    def test_fig15_tiny(self, capsys):
        assert main(["fig15", "--runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "F=10000" in out

    def test_fig13a_tiny(self, capsys):
        assert main(
            ["fig13a", "--stripes-per-process", "2", "--seeds", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "encode gain" in out

    def test_fig10_tiny(self, capsys):
        assert main(["fig10", "--jobs", "4"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out

    def test_fig12_tiny(self, capsys):
        assert main(["fig12", "--stripes", "6"]) == 0
        out = capsys.readouterr().out
        assert "write-response-idle" in out


# SHA-256 of each figure command's stdout, recorded before the figure
# commands became rows of ``repro.experiments.artefacts``.
FIGURE_PINS = (
    ("fig3",
     "e9842ca6b037bc9449298c7e54f3582f4ee89b14f5a274cec66d3f46f4b6dd07"),
    ("theorem1 --stripes 30",
     "d19167b3c0f518ee96fae8faddab39a0bb9824d02c54d43048b33c1807242c98"),
    ("fig8a --stripes 12 --seeds 1",
     "ca01040dca98978ac32d5d8146c2d26b7477d6d6bae2d26cb83f3e3038733240"),
    ("fig8b --stripes 12 --seeds 1",
     "18aff7ef46153fab10eb2edf942cef748dfbc49ef3ededdcebf8474291bc9437"),
    ("fig9 --stripes 12 --seeds 1",
     "33a283dbcbbc323e7dcc4aa9bc14e7c6b3c808d7551a6db321199564f5b1d2a8"),
    ("fig10 --jobs 2",
     "73415434e1cdbde84fa948cd558307ef4d14b257ac75de050e008c0cfa02166e"),
    ("fig12 --stripes 24",
     "ce637228bfc487f26a40bc9ec420c513fc71d477784b8cc3d12c22e17a5b70b9"),
    ("fig13a --stripes-per-process 1 --seeds 1",
     "c8b1ecd2ddc87e65976dd733efecdf0d352c85001257847241803c3f662551ae"),
    ("fig13b --stripes-per-process 1 --seeds 1",
     "c421640a43ee482fb311178f13516a80c4ae00df3063b7d0f676fdc38b555a81"),
    ("fig13c --stripes-per-process 1 --seeds 1",
     "51f053d61b81d27352b945e63296f8d3bbf5aea9a818d18f12117bd33bf19d7b"),
    ("fig13d --stripes-per-process 1 --seeds 1",
     "ff848e0c748b93ee6d715510b21ece3587f91429a5cb807be3cacbed17d90be3"),
    ("fig13e --stripes-per-process 1 --seeds 1",
     "ac9f5a13449ce7a4082d1bccfd196e31782fe4ed4f0f5ff2c6b9355259a3e2a6"),
    ("fig13f --stripes-per-process 1 --seeds 1",
     "27a0cc38a34a9a41801652201a97708962b4b77aed8104ccc115828d7f63d0aa"),
    ("fig14 --blocks 2000 --runs 4",
     "96797be6526a149fc8bf77be8c7c5627e5a250f6aeae2cd60facae26efd921ba"),
    ("fig15 --runs 1",
     "c2804c5b7f3ff38b4d2454ec682757ee76a4f7ad12b2a100c66bdcf153594e53"),
)


@pytest.mark.parametrize(
    "line, digest", FIGURE_PINS, ids=[line for line, _ in FIGURE_PINS]
)
def test_figure_command_output_is_pinned(line, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(line.split()) == 0
    text = out.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == digest, (
        f"repro {line} printed:\n{text}"
    )


def unclean_storm_trial(seed, **config):
    """Module-level (TrialSpec rejects closures): one grid cell, not clean."""
    return {
        "scenario": config["scenario"], "policy": config["policy"],
        "code": config["code_label"], "seed": seed, "clean": False,
        "sim_time": "0.0", "recovery": {}, "fingerprint": "0" * 64,
    }


class TestSweepArguments:
    """--seeds / --workers are validated once, for every sweep command."""

    SWEEPS = (
        ["fig13a"], ["fig13f"],
        ["recovery", "--head-to-head"], ["pipeline", "--head-to-head"],
    )

    @pytest.mark.parametrize("command", SWEEPS, ids=" ".join)
    def test_zero_seeds_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--seeds", "0"])
        assert excinfo.value.code == 2
        assert "--seeds: must be at least 1" in capsys.readouterr().err

    # Every count option rejects 0 at parse time instead of crashing in
    # the run (or, for pipeline/chaos, passing vacuously over no stripes).
    ZERO_COUNTS = (
        ["theorem1", "--k"], ["theorem1", "--stripes"],
        ["fig8a", "--stripes"], ["fig9", "--stripes"],
        ["fig12", "--stripes"],
        ["fig10", "--jobs"], ["fig13a", "--stripes-per-process"],
        ["fig14", "--blocks"], ["fig15", "--runs"],
        ["chaos", "--stripes"], ["recovery", "--stripes"],
        ["pipeline", "--stripes"], ["pipeline", "--chunks"],
    )

    @pytest.mark.parametrize("command", ZERO_COUNTS, ids=" ".join)
    def test_zero_count_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["0"])
        assert excinfo.value.code == 2
        assert f"{command[-1]}: must be at least 1" in capsys.readouterr().err

    # Chaos counts may be zero but not negative; the horizon must be a
    # positive, finite number of seconds (nan ran nothing, -5 crashed,
    # inf never returned).
    BAD_CHAOS = (
        (["--flaps", "-3"], "--flaps: must be at least 0"),
        (["--rack-outages", "-1"], "--rack-outages: must be at least 0"),
        (["--corruptions", "-2"], "--corruptions: must be at least 0"),
        (["--horizon", "nan"], "--horizon: must be positive and finite"),
        (["--horizon", "-5"], "--horizon: must be positive and finite"),
        (["--horizon", "0"], "--horizon: must be positive and finite"),
        (["--horizon", "inf"], "--horizon: must be positive and finite"),
    )

    @pytest.mark.parametrize(
        "options, message", BAD_CHAOS, ids=[" ".join(o) for o, _ in BAD_CHAOS]
    )
    def test_bad_chaos_value_is_a_usage_error(self, options, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos"] + options)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", SWEEPS + (["fig14"], ["fig15"]), ids=" ".join
    )
    def test_negative_workers_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--workers", "-1"])
        assert excinfo.value.code == 2
        assert "--workers: must be at least 0" in capsys.readouterr().err

    def test_flagless_sweep_stays_in_process_and_off_disk(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["fig14", "--blocks", "200", "--runs", "1"]) == 0
        assert "[sweep]" not in capsys.readouterr().out
        assert main(
            ["fig14", "--blocks", "200", "--runs", "1", "--workers", "2"]
        ) == 0
        assert "[sweep]" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


class TestGridExitStatus:
    def test_unclean_cell_fails_the_recovery_grid(self, monkeypatch, capsys):
        from repro.recovery import headtohead

        monkeypatch.setattr(headtohead, "storm_trial", unclean_storm_trial)
        assert main(["recovery", "rack_loss", "--head-to-head"]) == 1
        assert "False" in capsys.readouterr().out

    def test_unclean_cell_fails_the_json_grid_too(self, capsys):
        from repro.cli import _print_grid

        cells = [{"clean": True}, {"clean": False}]
        assert _print_grid(cells, rows_of=None, as_json=True) == 1
        assert _print_grid(cells[:1], rows_of=None, as_json=True) == 0

    def test_clean_grids_exit_zero(self, capsys):
        assert main(
            ["recovery", "rack_loss", "--head-to-head", "--stripes", "2"]
        ) == 0
        assert "rs_14_10" in capsys.readouterr().out

    def test_chaos_is_a_storm_scenario(self, capsys):
        assert main(["chaos", "--stripes", "4"]) == 0
        out = capsys.readouterr().out
        assert "scenario" in out and "chaos" in out
        assert "drill clean" in out


class TestJournalCommands:
    @pytest.fixture(params=["missing", "regular-file"])
    def not_a_journal(self, request, tmp_path):
        path = tmp_path / request.param
        if request.param == "regular-file":
            path.write_text("not a journal\n")
        return str(path)

    @pytest.mark.parametrize("action", ["dump", "verify", "stats"])
    def test_not_a_directory_fails(self, action, not_a_journal, capsys):
        assert main(["journal", action, not_a_journal]) == 1
        captured = capsys.readouterr()
        output = captured.out + captured.err
        assert f"not a directory: {not_a_journal}" in output
