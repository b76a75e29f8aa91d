"""Smoke test of the end-to-end benchmark (run explicitly; about a minute).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Not part of the tier-1 ``testpaths``: it spawns the benchmark itself, twice,
at ``--quick`` scale.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
for entry in (str(REPO / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import compare  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN = [sys.executable, str(HERE / "run.py")]


@pytest.fixture(scope="module")
def contract():
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick_sets(tmp_path_factory):
    """Two complete ``--quick`` result sets of the same seed."""
    sets = []
    for index in range(2):
        out = tmp_path_factory.mktemp("e2e") / f"quick{index}.json"
        done = subprocess.run(
            RUN + ["--quick", "--seed", "0", "--out", str(out)],
            capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        with open(out, encoding="utf-8") as handle:
            sets.append(json.load(handle))
    return sets


def test_declared_names_match_the_code(contract):
    declared = [w["name"] for w in contract["workloads"]]
    assert declared == list(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == list(layers.PER_LAYER)
    names = declared + [
        m["name"] for m in contract["end_to_end"] + contract["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert set(compare.WORKLOAD_BOUNDS) <= {n for n, __, __ in layers.PER_LAYER}


def test_emitted_names_are_the_declared_names(contract, quick_sets):
    for name, entry in quick_sets[0]["workloads"].items():
        assert sorted(entry["untraced"]["metrics"]) == sorted(
            m["name"] for m in contract["end_to_end"]
        ), name
        assert sorted(entry["traced"]["metrics"]) == sorted(
            m["name"] for m in contract["per_layer"]
        ), name
        assert all(
            value > 0 for value in entry["untraced"]["metrics"].values()
        ), name


def test_result_line_follows_the_contract(contract):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            RUN + ["--workload", "byte_plane", "--seed", "3", "--seconds",
                   "1", "--quick", "--trace", str(trace)],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert list(line["metrics"]) == [m["name"] for m in contract[key]]
        for metric in contract[key]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_quick_runs_are_exact_and_clean(quick_sets):
    first, second = quick_sets
    assert sorted(first["workloads"]) == sorted(workloads.WORKLOADS)
    for name, entry in first["workloads"].items():
        for kind in ("untraced", "traced"):
            run = entry[kind]
            assert run["failed"] == 0 and run["attempted"] >= 1, name
            assert run["mismatches"] == [], name
        assert entry["traced_equals_untraced"], name
    assert compare.exact_differences(first, second) == []


def test_a_wrong_decoded_byte_is_a_failed_operation(tmp_path):
    workload = workloads.WORKLOADS["byte_plane"]
    state = workload.setup(0, True, str(tmp_path))
    clean = workload.verify(state, workload.execute(state))
    assert clean.failed == 0
    state["corrupt_decode"] = True
    outcome = workload.verify(state, workload.execute(state))
    assert outcome.failed > 0
    assert outcome.failed / outcome.attempted > 0
    assert any("stream_decode" in failure for failure in outcome.failures)


def _sample(*values):
    import run  # noqa: E402  (the harness's own sample record)

    return run.sample(list(values), values[0])


@pytest.mark.parametrize("base, other, better, word", [
    ((1.00, 1.01, 1.02), (1.20, 1.21, 1.22), "lower", "regressed"),
    ((1.00, 1.01, 1.02), (1.00, 1.02, 1.03), "lower", "unchanged"),
    ((1.00, 1.01, 1.02), (0.80, 0.81, 0.82), "lower", "improved"),
    ((51.0, 50.5, 50.0), (41.0, 40.5, 40.0), "higher", "regressed"),
    ((51.0, 50.5, 50.0), (61.0, 60.5, 60.0), "higher", "improved"),
    # Base spread wider than the 10 % bound, samples overlap: cannot tell.
    ((0.8, 1.0, 1.3), (1.1, 1.15, 1.25), "lower", "unresolved"),
    # Same wide base, but every other run is worse than every base run.
    ((0.8, 1.0, 1.3), (1.4, 1.5, 1.6), "lower", "regressed"),
])
def test_compare_verdicts(base, other, better, word):
    assert compare.verdict(
        _sample(*base), _sample(*other), better, 0.10
    )[0] == word
