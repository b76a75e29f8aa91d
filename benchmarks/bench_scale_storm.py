"""Stripe-scaling drill: a rack-loss storm at 150, 300, 600, 1 200 stripes.

Not a paper figure — the repair queue's scale demonstration.  The seed-0
rack loss on 20 racks x 10 nodes with RS(14,10) at c = 1 loses one block
of almost every stripe at once, so the queue holds hundreds of blocks.
Each storm must stay clean and encode every stripe, the 1 200-stripe
fingerprint must repeat on a second run, and the dispatcher's risk keys
per started repair (``repair.dispatch_keys``) must stay flat as the queue
deepens.  Wall time per size and the 1 200 / 150 ratio are reported; the
storm's event queue peaks at 45 pending entries at every size.
"""

import time

from repro.erasure.codec import CodeParams
from repro.experiments.runner import format_table
from repro.recovery.storm import run_storm
from repro.sim.metrics import measure_ops

from .conftest import emit, run_once

STRIPES = (150, 300, 600, 1200)
NUM_RACKS = 20
NODES_PER_RACK = 10
CODE = CodeParams(14, 10)
SEED = 0


def _storm(stripes):
    start = time.perf_counter()
    with measure_ops() as ops:
        report = run_storm(
            "rack_loss",
            seed=SEED,
            num_racks=NUM_RACKS,
            nodes_per_rack=NODES_PER_RACK,
            num_stripes=stripes,
            code=CODE,
            ear_c=1,
        )
    return report, ops, time.perf_counter() - start


def _all_sizes():
    runs = {stripes: _storm(stripes) for stripes in STRIPES}
    return runs, _storm(STRIPES[-1])


def test_scale_storm(benchmark):
    runs, (repeat, __, __) = run_once(benchmark, _all_sizes)

    rows = []
    keys_per_repair = {}
    for stripes, (report, ops, wall) in runs.items():
        assert report.clean, stripes
        assert report.stripes_encoded == stripes
        repairs = sum(report.repair_outcomes.values())
        keys_per_repair[stripes] = ops.get("repair.dispatch_keys") / repairs
        rows.append([
            stripes, repairs, f"{keys_per_repair[stripes]:.2f}",
            f"{wall:.2f}s", report.fingerprint[:16],
        ])
    largest, smallest = STRIPES[-1], STRIPES[0]
    ratio = runs[largest][2] / runs[smallest][2]
    emit(
        f"Stripe scaling: rack loss at {NUM_RACKS} racks x {NODES_PER_RACK} "
        f"nodes, RS({CODE.n},{CODE.k}), c = 1 (wall {largest}/{smallest} = "
        f"{ratio:.1f}x for {largest // smallest}x the stripes)",
        format_table(
            ["stripes", "repairs", "keys/repair", "wall", "fingerprint"],
            rows,
        ),
    )

    assert repeat.fingerprint == runs[largest][0].fingerprint
    assert keys_per_repair[largest] <= 1.5 * keys_per_repair[smallest]
    # Returned metrics land in the BENCH json ("wall_" = machine noise,
    # stripped from differential comparisons).
    return {
        "keys_per_repair_1200": keys_per_repair[largest],
        "wall_storm_150_s": runs[smallest][2],
        "wall_storm_1200_s": runs[largest][2],
        "wall_ratio_1200_over_150": ratio,
    }
