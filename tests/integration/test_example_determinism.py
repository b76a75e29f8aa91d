"""Determinism regression: seeded commands print byte-identical output
under different string-hash seeds.

Each command runs twice in separate interpreter processes, under
``PYTHONHASHSEED=1`` and ``=2``.  Any decision or printed order fed by
set iteration over strings changes between the two runs and fails the
comparison.  The commands cover the chaos drill (which also replays
itself in-process and asserts matching sha256 fingerprints), three
recovery storms (``rolling_failures`` arms several loss events in one
injector; the 600-stripe rack loss keeps hundreds of blocks waiting at
once, so the repair queue's tie-breaks decide its order) and a
pipelined-encoding trial.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

COMMANDS = {
    "chaos_drill": [str(REPO / "examples" / "chaos_drill.py"), "0"],
    "recovery_rack_loss": ["-m", "repro", "recovery", "rack_loss"],
    "recovery_rack_loss_deep_queue": [
        "-m", "repro", "recovery", "rack_loss", "--stripes", "600",
        "--seed", "7",
    ],
    "recovery_rolling_failures": [
        "-m", "repro", "recovery", "rolling_failures",
    ],
    "pipeline": ["-m", "repro", "pipeline"],
}


def run(command, hash_seed):
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO / "src"),
        PYTHONHASHSEED=str(hash_seed),
    )
    return subprocess.run(
        [sys.executable] + command,
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestChaosDrillExampleDeterminism:
    """The chaos drill, plus three storms and one pipeline trial beside it."""

    @pytest.mark.parametrize("name", COMMANDS)
    def test_same_seed_same_output_across_hash_seeds(self, name):
        first = run(COMMANDS[name], hash_seed=1)
        second = run(COMMANDS[name], hash_seed=2)
        assert first.returncode == 0, first.stdout + first.stderr
        assert second.returncode == 0, second.stdout + second.stderr
        assert "fingerprint" in first.stdout
        assert first.stdout == second.stdout
