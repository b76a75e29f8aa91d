"""The failure drill's printed report, pinned at its default seed.

``examples/failure_drill.py`` loses rack 5 of a 20x20 cluster in the
middle of an encoding wave and prints what the repair cost.  These are
the numbers it printed when recorded; a moved value means the loss, the
repair queue or the network model changed behaviour.
"""

import importlib.util
from pathlib import Path

import pytest

DRILL = Path(__file__).resolve().parents[2] / "examples" / "failure_drill.py"


@pytest.fixture(scope="module")
def drill():
    spec = importlib.util.spec_from_file_location("failure_drill", DRILL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed7_report(drill, capsys):
    drill.main(7)
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    for expected in (
        "blocks lost:           39",
        "re-replicated copies:  31",
        "erasure-decoded:       8",
        "unrecoverable:         0",
        "repair took:           16.1 s",
        "cross-rack traffic during the repair window: "
        "7.44 GiB over 142 transfers",
        "stripes encoded: 29/30 (1 pinned to the dead rack stay replicated)",
    ):
        assert expected in lines
