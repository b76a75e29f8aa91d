"""Scale-out drill: a 100-rack x 10-node rack-loss storm.

Not a paper figure — the simulator-kernel scale demonstration: the full
1000-node rack-loss drill must stay clean, re-protect every stripe and
reproduce its fingerprint on a second run.  Its pending-event set peaks
at 91 entries, which is why one binary heap is all the kernel needs.
"""

import time

from repro.experiments.runner import format_table
from repro.recovery.storm import run_storm

from .conftest import emit, run_once

NUM_RACKS = 100
NODES_PER_RACK = 10
NUM_STRIPES = 64
SEED = 0


def _storm():
    start = time.perf_counter()
    report = run_storm(
        "rack_loss",
        seed=SEED,
        num_racks=NUM_RACKS,
        nodes_per_rack=NODES_PER_RACK,
        num_stripes=NUM_STRIPES,
    )
    return report, time.perf_counter() - start


def test_scale_storm(benchmark):
    (first, wall_first), (second, wall_second) = run_once(
        benchmark, lambda: (_storm(), _storm())
    )

    emit(
        f"Scale storm: rack loss at {NUM_RACKS} racks x {NODES_PER_RACK} "
        "nodes, run twice (fingerprints must match)",
        format_table(
            ["run", "wall", "fingerprint"],
            [
                ["first", f"{wall_first:.2f}s", first.fingerprint[:16]],
                ["second", f"{wall_second:.2f}s", second.fingerprint[:16]],
            ],
        ),
    )

    assert first.fingerprint == second.fingerprint
    assert first.clean and second.clean
    assert first.stripes_encoded == NUM_STRIPES
    # Returned metrics land in the BENCH json ("wall_" = machine noise,
    # stripped from differential comparisons).
    return {
        "racks": float(NUM_RACKS),
        "nodes": float(NUM_RACKS * NODES_PER_RACK),
        "wall_storm_s": min(wall_first, wall_second),
    }
