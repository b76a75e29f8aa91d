"""Extension benchmark: EAR gains vs network-core over-subscription.

The paper motivates EAR with over-subscribed cores (Section II-A) but its
Experiment B.2 keeps rack uplinks at node speed.  This sweep derates only
the uplinks: at ratio 8, a rack's 20 nodes share one-eighth of a NIC's
bandwidth — and EAR's advantage (it barely touches the core during
encoding) widens accordingly.
"""

from repro.experiments.artefacts import pct
from repro.experiments.config import LargeScaleConfig
from repro.experiments.largescale import sweep_oversubscription
from repro.experiments.runner import format_table

from .conftest import emit, run_once

BASE = LargeScaleConfig().scaled(10)
RATIOS = (1.0, 2.0, 4.0)
SEEDS = (0, 1)


def test_ext_oversubscription(benchmark):
    points = run_once(
        benchmark,
        lambda: sweep_oversubscription(ratios=RATIOS, base=BASE, seeds=SEEDS),
    )
    rows = [
        [
            f"{p.parameter:g}:1",
            pct(p.encode_gain),
            pct(p.write_gain),
            str(p.encode_summary()),
        ]
        for p in points
    ]
    emit(
        "Extension: EAR-over-RR gains vs core over-subscription "
        "(uplink speed = NIC speed / ratio)",
        format_table(
            ["oversubscription", "encode gain", "write gain",
             "encode ratio boxplot"],
            rows,
        ),
    )
    by_ratio = {p.parameter: p for p in points}
    for p in points:
        assert p.encode_gain > 0
    # Scarcer cores sharpen EAR's advantage.
    assert by_ratio[4.0].encode_gain > by_ratio[1.0].encode_gain
