"""The paper-artefact table's shape checks, on hand-built results.

``RECORDED`` holds one result per row, shaped like the bench-scale numbers
``benchmarks/bench_paper.py`` prints (rounded as printed), so each claim
must pass it.  ``BROKEN`` holds the same result with RR and EAR swapped,
or, where a row's checks do not tell the policies apart (F3 and T1 have
no policies; the A3, C1 and C2 checks are symmetric in RR and EAR), with
one value moved out of its band; each claim must reject it.  No driver
runs here.
"""

import pytest

from repro.experiments.artefacts import ARTEFACTS
from repro.experiments.largescale import NormalisedPoint
from repro.experiments.validation import AnalyticCheck, ConsistencyCheck

ROWS = {artefact.id: artefact for artefact in ARTEFACTS}


def throughputs(keys, rr, ear):
    """A Figure 8 result: ``{key: {rr, ear, gain}}``."""
    return {
        key: {"rr": r, "ear": e, "gain": e / r - 1.0}
        for key, r, e in zip(keys, rr, ear)
    }


def gains(values, encode, write):
    """A Figure 13 result: one single-seed point per parameter value."""
    return [
        NormalisedPoint(value, (1.0 + enc,), (1.0 + wr,))
        for value, enc, wr in zip(values, encode, write)
    ]


def swapped_gains(points):
    """The same Figure 13 points with RR and EAR swapped."""
    return [
        NormalisedPoint(
            p.parameter,
            tuple(1.0 / r for r in p.encode_ratios),
            tuple(1.0 / r for r in p.write_ratios),
        )
        for p in points
    ]


def fig12(rr_curve, ear_curve, rr_row, ear_row):
    return {
        "stripes": 96,
        "checks": [
            AnalyticCheck("write-response-idle", 1.0737, 1.0737),
            AnalyticCheck("ear-stripe-encode-idle", 3.7581, 3.7581),
        ],
        "table1": [
            ConsistencyCheck("rr", *rr_row),
            ConsistencyCheck("ear", *ear_row),
        ],
        "curves": {"rr": rr_curve, "ear": ear_curve},
    }


FIG3_F = {
    6: [0.264, 0.038], 8: [0.640, 0.131], 10: [0.908, 0.291],
    12: [0.991, 0.492],
}
THEOREM1 = {
    1: 1.000, 2: 1.000, 3: 1.000, 4: 1.025, 5: 1.045,
    6: 1.150, 7: 1.218, 8: 1.407, 9: 1.425, 10: 1.645,
}
FIG8A = ((4, 6, 8, 10), (612, 733, 794, 866), (849, 1042, 1171, 1243))
FIG8B = ((0, 200, 400, 600, 800), (785, 670, 523, 347, 181),
         (1155, 1088, 977, 817, 539))
FIG9_RR = {"before": 1.25, "during": 2.39, "encode_time": 67}
FIG9_EAR = {"before": 1.20, "during": 1.48, "encode_time": 48}
FIG12_RR = ([(19.0, 24), (33.0, 48), (50.0, 72), (67.0, 96)],
            (1.22, 2.15, 68.0))
FIG12_EAR = ([(12.0, 24), (22.0, 48), (32.0, 72), (45.0, 96)],
             (1.20, 1.48, 49.0))
FIG13 = {
    "B2a": ((6, 8, 10, 12), (0.689, 0.760, 0.777, 0.884),
            (0.219, 0.426, 0.477, 0.527)),
    "B2b": ((2, 3, 4, 5, 6), (0.866, 0.833, 0.777, 0.741, 0.665),
            (0.725, 0.535, 0.477, 0.412, 0.280)),
    "B2c": ((0.2, 0.5, 1.0, 2.0), (0.964, 0.807, 0.777, 0.793),
            (0.518, 0.537, 0.477, 0.465)),
    "B2d": ((1.0, 2.0, 3.0, 4.0), (0.777, 0.858, 0.835, 0.922),
            (0.477, 0.522, 0.511, 0.511)),
    "B2e": ((1, 2, 4), (0.908, 0.804, 0.776), (0.692, 0.620, 0.521)),
    "B2f": ((2, 3, 5, 8), (0.775, 0.756, 0.657, 0.543),
            (0.614, 1.057, 0.875, 0.711)),
}
FIG14_RR = [0.05348, 0.05116, 0.05001, 0.04903, 0.04725]
FIG14_EAR = [0.05260, 0.05105, 0.05001, 0.04927, 0.04734]
SIZES = (1, 10, 100, 1_000, 10_000)
FIG15_RR = dict(zip(SIZES, (0.5, 0.1625, 0.0796, 0.0593, 0.0527)))
FIG15_EAR = dict(zip(SIZES, (0.5, 0.1625, 0.0783, 0.0596, 0.0528)))

RECORDED = {
    "F3": {"racks": [14, 40], "f": FIG3_F, "exact": 0.9706, "mc": 0.9700},
    "T1": {"racks": 20, "k": 10, "measured": THEOREM1},
    "A1a": throughputs(*FIG8A),
    "A1b": throughputs(*FIG8B),
    "A2": {"rr": FIG9_RR, "ear": FIG9_EAR},
    "A3": {"rr": {"makespan": 701, "mean_runtime": 1.2},
           "ear": {"makespan": 701, "mean_runtime": 1.2}},
    "B1": fig12(FIG12_RR[0], FIG12_EAR[0], FIG12_RR[1], FIG12_EAR[1]),
    **{id_: gains(*values) for id_, values in FIG13.items()},
    "C1": {"rr": FIG14_RR, "ear": FIG14_EAR},
    "C2": {"rr": FIG15_RR, "ear": FIG15_EAR},
}

BROKEN = {
    # Monte-Carlo 0.015 off the closed form.
    "F3": {**RECORDED["F3"], "mc": 0.9856},
    # E_10 above 1.25 x its bound of 1.9.
    "T1": {**RECORDED["T1"], "measured": {**THEOREM1, 10: 2.4}},
    "A1a": throughputs(FIG8A[0], FIG8A[2], FIG8A[1]),
    "A1b": throughputs(FIG8B[0], FIG8B[2], FIG8B[1]),
    "A2": {"rr": FIG9_EAR, "ear": FIG9_RR},
    # EAR's makespan 17 % above RR's.
    "A3": {"rr": {"makespan": 701, "mean_runtime": 1.2},
           "ear": {"makespan": 820, "mean_runtime": 1.2}},
    "B1": fig12(FIG12_EAR[0], FIG12_RR[0], FIG12_EAR[1], FIG12_RR[1]),
    **{id_: swapped_gains(gains(*values)) for id_, values in FIG13.items()},
    # EAR's top rack above the 5.4 % band edge.
    "C1": {"rr": FIG14_RR, "ear": [0.0545] + FIG14_EAR[1:]},
    # EAR's H at 10 000 blocks above 7 %.
    "C2": {"rr": FIG15_RR, "ear": {**FIG15_EAR, 10_000: 0.0705}},
}


def test_every_row_has_a_recorded_and_a_broken_result():
    assert set(RECORDED) == set(BROKEN) == set(ROWS)
    assert len(ROWS) == len(ARTEFACTS) == 15  # B1 is Fig. 12 and Table I


@pytest.mark.parametrize("row_id", list(ROWS))
def test_recorded_bench_numbers_pass(row_id):
    assert ROWS[row_id].claim(RECORDED[row_id]) == []


@pytest.mark.parametrize("row_id", list(ROWS))
def test_swapped_or_out_of_band_result_fails(row_id):
    failures = ROWS[row_id].claim(BROKEN[row_id])
    assert failures
    assert all(isinstance(message, str) and message for message in failures)

