"""The paper's evaluation artefacts: one row per figure or theorem.

Each :class:`Artefact` row is the one definition of a paper artefact: its
EXPERIMENTS.md id, the ``repro`` subcommand and options that regenerate
it, the driver call, the scale ``benchmarks/bench_paper.py`` runs it at,
the table both print and the shape checks its result must pass.
``repro.cli`` builds its figure subcommands from :data:`ARTEFACTS`, and
the bench file runs every row at its ``bench`` scale, prints the row's
table under its title and fails with the row's claim.

A row's ``run`` takes keyword arguments only: ``scale`` maps the parsed
CLI options to them and ``bench`` holds the bench file's constants.  The
sweep rows also take the ``executor`` the CLI builds from ``--workers``.
``claim`` returns the failed checks, one message each, and reads values
only the bench scale computes (Fig. 3's Monte-Carlo point, Table I), so
it is meant for results at that scale.
"""

from __future__ import annotations

import argparse
import functools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.analysis.iterations import empirical_attempts, theorem1_bound
from repro.analysis.violation import (
    figure3_table,
    violation_probability,
    violation_probability_mc,
)
from repro.erasure.codec import CodeParams
from repro.experiments.charts import bar_chart, line_chart
from repro.experiments.config import LargeScaleConfig, PolicyName, TestbedConfig
from repro.experiments.largescale import (
    sweep_bandwidth,
    sweep_k,
    sweep_m,
    sweep_rack_tolerance,
    sweep_replicas,
    sweep_write_rate,
)
from repro.experiments.loadbalance import read_balance, storage_balance
from repro.experiments.runner import format_table, mean
from repro.experiments.testbed import (
    run_mapreduce_workload,
    run_write_during_encoding,
    sweep_nk,
    sweep_udp,
)
from repro.experiments.validation import (
    encoded_stripes_curves,
    table1_rows,
    validate_single_stripe_encode,
    validate_write_path,
)


def pct(x: float) -> str:
    """Format a fraction as a signed percentage, e.g. ``+41.3%``."""
    return f"{100 * x:+.1f}%"


def failed(*checks: Tuple[bool, str]) -> List[str]:
    """The messages of the ``(passed, message)`` checks that did not pass."""
    return [message for passed, message in checks if not passed]


# ----------------------------------------------------------------------
# CLI option specs
# ----------------------------------------------------------------------
def at_least(minimum: int):
    """argparse ``type``: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return value

    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


def arg(*flags, **kwargs):
    """One ``(flags, kwargs)`` pair, handed as is to ``add_argument``."""
    return flags, kwargs


# Pairs several commands share; every sweep command ends with SWEEP.
SEED = arg("--seed", type=int, default=0)
SWEEP = [
    arg("--workers", type=at_least(0), default=None,
        help="fan sweep trials out to N worker processes (0 = in-process; "
        "results are identical)"),
]
TESTBED = [
    arg("--stripes", type=at_least(1), default=96),
    arg("--seeds", type=at_least(1), default=3),
]
FIG13 = [
    arg("--stripes-per-process", type=at_least(1), default=10),
    arg("--seeds", type=at_least(1), default=2),
] + SWEEP


@dataclass(frozen=True)
class Artefact:
    """One paper artefact, defined once for the CLI and the bench file."""

    #: EXPERIMENTS.md / DESIGN.md id, e.g. ``"A1a"``.
    id: str
    #: ``repro`` subcommand.
    command: str
    #: CLI help line and bench heading.
    title: str
    #: The subcommand's ``arg`` pairs.
    options: Sequence[Tuple[tuple, dict]]
    #: Parsed CLI options -> ``run`` keywords (rejects unusable ones).
    scale: Callable[[argparse.Namespace], Dict[str, Any]]
    #: The driver call: ``run`` keywords -> result.
    run: Callable[..., Any]
    #: ``run`` keywords at bench scale.
    bench: Dict[str, Any]
    #: Result -> the table the CLI prints.
    format: Callable[[Any], str]
    #: Bench-scale result -> messages of the failed shape checks.
    claim: Callable[[Any], List[str]]


# ----------------------------------------------------------------------
# F3 — Figure 3 and T1 — Theorem 1
# ----------------------------------------------------------------------
#: Figure 3's anchor: f = 0.97 at R = 16, k = 12.
ANCHOR = (16, 12)


def _fig3_scale(args) -> Dict[str, Any]:
    if args.min_racks > args.max_racks:
        args.error("--min-racks must not exceed --max-racks")
    return {"racks": range(args.min_racks, args.max_racks + 1, 2)}


def run_fig3(racks: Iterable[int], mc_trials: int = 0) -> Dict[str, Any]:
    """Equation (1) per (R, k), plus a Monte-Carlo estimate at the anchor
    when ``mc_trials`` is positive."""
    racks = list(racks)
    return {
        "racks": racks,
        "f": figure3_table(racks, (6, 8, 10, 12)),
        "exact": violation_probability(*ANCHOR),
        "mc": violation_probability_mc(*ANCHOR, mc_trials, random.Random(0))
        if mc_trials else None,
    }


def format_fig3(result) -> str:
    f = result["f"]
    rows = [
        [r] + [f"{f[k][i]:.3f}" for k in f]
        for i, r in enumerate(result["racks"])
    ]
    return format_table(["R"] + [f"k={k}" for k in f], rows)


def claim_fig3(result) -> List[str]:
    f, exact, mc = result["f"], result["exact"], result["mc"]
    return failed(
        (abs(exact - 0.97) < 0.005,
         f"closed-form f{ANCHOR} = {exact:.4f}, paper 0.97"),
        (abs(mc - exact) < 0.01,
         f"Monte-Carlo f{ANCHOR} = {mc:.4f} is off the closed form"),
        *((f[k][0] > f[k][-1], f"f does not fall with R at k={k}") for k in f),
        (f[12][0] > f[6][0], "f does not rise with k"),
    )


def _theorem1_scale(args) -> Dict[str, Any]:
    if args.racks < args.k + 4:
        args.error(f"--racks must be at least the stripe width n = k + 4 "
                   f"= {args.k + 4}")
    return {"racks": args.racks, "k": args.k, "stripes": args.stripes,
            "seed": args.seed}


def run_theorem1(racks: int, k: int, stripes: int, seed: int):
    """Mean EAR redraws per block index of ``(k + 4, k)`` stripes."""
    measured = empirical_attempts(
        num_racks=racks,
        nodes_per_rack=40,
        code=CodeParams(k + 4, k),
        num_stripes=stripes,
        rng=random.Random(seed),
    )
    return {"racks": racks, "k": k, "measured": measured}


def format_theorem1(result) -> str:
    measured, racks = result["measured"], result["racks"]
    rows = [
        [i, f"{measured[i]:.3f}", f"{theorem1_bound(i, racks):.3f}"]
        for i in range(1, result["k"] + 1)
    ]
    return format_table(["i", "measured E_i", "bound"], rows)


def claim_theorem1(result) -> List[str]:
    measured, k = result["measured"], result["k"]
    bound = theorem1_bound(k, result["racks"])
    return failed(
        (measured[1] == 1.0, f"E_1 = {measured[1]:.3f}, not 1"),
        (measured[k] <= bound * 1.25,
         f"E_{k} = {measured[k]:.3f} above 1.25 x the bound {bound:.3f}"),
        (measured[k] > 1.0, f"E_{k} = {measured[k]:.3f}: no redraws"),
    )


# ----------------------------------------------------------------------
# A1a, A1b, A2, A3 — Figures 8-10 on the testbed model
# ----------------------------------------------------------------------
def _testbed_scale(args) -> Dict[str, Any]:
    return {"stripes": args.stripes, "seeds": args.seeds}


def run_fig8a(stripes: int, seeds: int):
    """Mean encoding throughput per (n, k): ``{k: {rr, ear, gain}}``."""
    return sweep_nk(
        ks=(4, 6, 8, 10), seeds=range(seeds),
        config=TestbedConfig().scaled(stripes),
    )


def format_fig8a(results) -> str:
    rows = [
        [f"({k + 2},{k})", f"{r['rr']:.0f}", f"{r['ear']:.0f}", pct(r["gain"])]
        for k, r in sorted(results.items())
    ]
    labels, values = [], []
    for k, r in sorted(results.items()):
        labels.extend([f"({k + 2},{k}) RR", f"({k + 2},{k}) EAR"])
        values.extend([round(r["rr"]), round(r["ear"])])
    return "\n".join([
        format_table(["(n,k)", "RR MB/s", "EAR MB/s", "gain"], rows),
        "",
        bar_chart(labels, values, unit=" MB/s"),
    ])


def claim_fig8a(results) -> List[str]:
    return failed(
        *((r["gain"] > 0, f"EAR loses at k={k}: {pct(r['gain'])}")
          for k, r in results.items()),
        (results[10]["rr"] > results[4]["rr"],
         "RR throughput does not rise with k"),
        (results[10]["ear"] > results[4]["ear"],
         "EAR throughput does not rise with k"),
        (results[10]["gain"] > results[4]["gain"],
         "EAR's gain at k=10 is not above its gain at k=4"),
    )


def run_fig8b(stripes: int, seeds: int):
    """Mean (10, 8) encoding throughput per UDP rate in Mb/s."""
    return sweep_udp(seeds=range(seeds), config=TestbedConfig().scaled(stripes))


def format_fig8b(results) -> str:
    rows = [
        [f"{rate:.0f}", f"{r['rr']:.0f}", f"{r['ear']:.0f}", pct(r["gain"])]
        for rate, r in sorted(results.items())
    ]
    return format_table(["UDP Mb/s", "RR MB/s", "EAR MB/s", "gain"], rows)


def claim_fig8b(results) -> List[str]:
    return failed(
        *((r["gain"] > 0, f"EAR loses at {rate} Mb/s: {pct(r['gain'])}")
          for rate, r in results.items()),
        (results[800]["rr"] < results[0]["rr"],
         "UDP cross-traffic does not slow RR"),
        (results[800]["gain"] > results[0]["gain"],
         "EAR's gain does not grow with UDP cross-traffic"),
    )


def run_fig9(stripes: int, seeds: int):
    """Mean write RT before/during encoding and encoding time per policy."""
    config = TestbedConfig().scaled(stripes)
    out = {}
    for policy in PolicyName.PAPER:
        results = [
            run_write_during_encoding(policy, config=config, seed=s)
            for s in range(seeds)
        ]
        out[policy] = {
            "before": mean(r.write_rt_before for r in results),
            "during": mean(r.write_rt_during for r in results),
            "encode_time": mean(r.encoding_time for r in results),
        }
    return out


def format_fig9(out) -> str:
    rows = [
        [policy.upper(), f"{r['before']:.2f}", f"{r['during']:.2f}",
         f"{r['encode_time']:.0f}"]
        for policy, r in out.items()
    ]
    return format_table(
        ["policy", "RT before (s)", "RT during (s)", "encode time (s)"], rows
    )


def claim_fig9(out) -> List[str]:
    rt_delta = out["ear"]["during"] / out["rr"]["during"] - 1.0
    encode_delta = out["ear"]["encode_time"] / out["rr"]["encode_time"] - 1.0
    return failed(
        *((r["during"] > r["before"],
           f"encoding does not slow {policy.upper()} writes")
          for policy, r in out.items()),
        (rt_delta < 0, f"EAR vs RR write RT during encoding {pct(rt_delta)}"),
        (encode_delta < 0, f"EAR vs RR encoding time {pct(encode_delta)}"),
    )


def run_fig10(jobs: int, seeds: Sequence[int]):
    """SWIM job makespan and mean runtime per policy, averaged over seeds."""
    out = {}
    for policy in PolicyName.PAPER:
        runs = [
            run_mapreduce_workload(policy, num_jobs=jobs, seed=seed)
            for seed in seeds
        ]
        out[policy] = {
            "makespan": mean(max(r.finish_time for r in run) for run in runs),
            "mean_runtime": mean(mean(r.runtime for r in run) for run in runs),
        }
    return out


def format_fig10(out) -> str:
    rows = [
        [policy.upper(), f"{r['makespan']:.0f}", f"{r['mean_runtime']:.1f}"]
        for policy, r in out.items()
    ]
    return format_table(["policy", "makespan (s)", "mean runtime (s)"], rows)


def claim_fig10(out) -> List[str]:
    delta = out["ear"]["makespan"] / out["rr"]["makespan"] - 1.0
    return failed(
        (abs(delta) < 0.15, f"EAR vs RR makespan {pct(delta)}, not within 15%"),
    )


# ----------------------------------------------------------------------
# B1 — Figure 12 and Table I
# ----------------------------------------------------------------------
def run_fig12(stripes: int, seed: int, table1_seeds: Sequence[int] = ()):
    """Analytic checks and encoded-stripes curves; Table I's write RTs
    over ``table1_seeds`` when any are given."""
    config = TestbedConfig().scaled(stripes)
    return {
        "stripes": stripes,
        "checks": [
            validate_write_path(config),
            validate_single_stripe_encode(config=config),
        ],
        "table1": table1_rows(seeds=table1_seeds, config=config)
        if table1_seeds else [],
        "curves": encoded_stripes_curves(config=config, seed=seed),
    }


def format_fig12(result) -> str:
    lines = [
        f"{check.name}: measured {check.measured:.4f}s, "
        f"expected {check.expected:.4f}s (error {check.relative_error:.2e})"
        for check in result["checks"]
    ]
    curves = result["curves"]
    rows = [[policy.upper(), f"{curve[-1][0]:.0f}"]
            for policy, curve in curves.items()]
    lines += [
        format_table(
            ["policy", f"time to encode {result['stripes']} stripes (s)"],
            rows,
        ),
        "",
        line_chart(curves, width=60, height=12, x_label="seconds",
                   y_label="stripes"),
    ]
    return "\n".join(lines)


def claim_fig12(result) -> List[str]:
    table1 = {row.policy: row for row in result["table1"]}
    curves = result["curves"]
    return failed(
        *((check.relative_error < 1e-9,
           f"{check.name}: relative error {check.relative_error:.2e}")
          for check in result["checks"]),
        (table1["ear"].encoding_time < table1["rr"].encoding_time,
         "Table I: EAR does not encode faster than RR"),
        *((row.rt_with_encoding > row.rt_without_encoding,
           f"Table I: encoding does not slow {row.policy.upper()} writes")
          for row in table1.values()),
        (curves["ear"][-1][0] < curves["rr"][-1][0],
         "Figure 12: EAR does not finish encoding before RR"),
    )


# ----------------------------------------------------------------------
# B2a-f — Figure 13 on the 20x20 cluster
# ----------------------------------------------------------------------
def _fig13_scale(args) -> Dict[str, Any]:
    return {"stripes_per_process": args.stripes_per_process,
            "seeds": args.seeds}


def run_fig13(sweep, stripes_per_process: int, seeds: int, executor=None,
              **axis):
    """One Figure 13 sweep; ``axis`` overrides its parameter values."""
    return sweep(
        base=LargeScaleConfig().scaled(stripes_per_process),
        seeds=range(seeds), executor=executor, **axis,
    )


def format_fig13(header: str, label, points) -> str:
    rows = [
        [label(p.parameter), pct(p.encode_gain), pct(p.write_gain)]
        for p in points
    ]
    return format_table([header, "encode gain", "write gain"], rows)


def _encode_wins(points) -> List[Tuple[bool, str]]:
    return [(p.encode_gain > 0,
             f"EAR encodes slower at {p.parameter}: {pct(p.encode_gain)}")
            for p in points]


def _write_wins(points) -> List[Tuple[bool, str]]:
    return [(p.write_gain > 0,
             f"EAR writes slower at {p.parameter}: {pct(p.write_gain)}")
            for p in points]


def _gain(points, parameter, attribute: str) -> float:
    return next(getattr(p, attribute) for p in points
                if p.parameter == parameter)


def claim_fig13a(points) -> List[str]:
    return failed(
        *_encode_wins(points), *_write_wins(points),
        (_gain(points, 12, "encode_gain") > _gain(points, 6, "encode_gain"),
         "encode gain at k=12 is not above k=6"),
    )


def claim_fig13b(points) -> List[str]:
    gains = [p.encode_gain for p in points]
    return failed(
        *_encode_wins(points),
        (max(gains) - min(gains) < 0.6,
         f"encode gain spans {pct(max(gains) - min(gains))}, not < 60%"),
        (_gain(points, 6, "write_gain") < _gain(points, 2, "write_gain"),
         "write gain at n-k=6 is not below n-k=2"),
    )


def claim_fig13c(points) -> List[str]:
    return failed(
        *_encode_wins(points),
        (_gain(points, 0.2, "encode_gain") > _gain(points, 2.0, "encode_gain"),
         "encode gain at 0.2 Gb/s is not above 2 Gb/s"),
    )


def claim_fig13d(points) -> List[str]:
    return failed(
        *_encode_wins(points), *_write_wins(points),
        (_gain(points, 4.0, "encode_gain")
         > _gain(points, 1.0, "encode_gain") * 0.85,
         "encode gain at 4 req/s fell below 0.85 x its 1 req/s value"),
    )


def claim_fig13e(points) -> List[str]:
    return failed(
        *_encode_wins(points),
        (_gain(points, 1, "encode_gain") > _gain(points, 4, "encode_gain"),
         "encode gain at t=1 is not above t=4"),
    )


def claim_fig13f(points) -> List[str]:
    return failed(
        *_encode_wins(points),
        (_gain(points, 8, "write_gain") < _gain(points, 2, "write_gain") * 1.2,
         "write gain at 8 replicas is not below 1.2 x its 2-replica value"),
    )


def _fig13(id, command, title, sweep, header, label, claim, **axis):
    """A Figure 13 row: 20 stripes per process x 3 seeds at bench scale."""
    return Artefact(
        id=id, command=command, title=title, options=FIG13,
        scale=_fig13_scale,
        run=functools.partial(run_fig13, sweep),
        bench={"stripes_per_process": 20, "seeds": 3, **axis},
        format=functools.partial(format_fig13, header, label),
        claim=claim,
    )


# ----------------------------------------------------------------------
# C1, C2 — Figures 14 and 15
# ----------------------------------------------------------------------
RANKS = (0, 4, 9, 14, 19)
FILE_SIZES = (1, 10, 100, 1_000, 10_000)


def run_fig14(blocks: int, runs: int, executor=None):
    """Mean sorted per-rack replica shares per policy."""
    return storage_balance(num_blocks=blocks, runs=runs, executor=executor)


def format_fig14(shares) -> str:
    rows = [
        [policy.upper()] + [f"{100 * share[r]:.3f}%" for r in RANKS]
        for policy, share in shares.items()
    ]
    return format_table(["policy"] + [f"rank {r + 1}" for r in RANKS], rows)


def claim_fig14(shares) -> List[str]:
    return failed(
        *((share[0] < 0.054,
           f"{policy.upper()} top rack share {share[0]:.4f}, not < 0.054")
          for policy, share in shares.items()),
        *((share[-1] > 0.046,
           f"{policy.upper()} bottom rack share {share[-1]:.4f}, not > 0.046")
          for policy, share in shares.items()),
        *((abs(rr - ear) < 0.003,
           f"EAR share {ear:.4f} strays from RR {rr:.4f} at rank {rank + 1}")
          for rank, (rr, ear) in enumerate(zip(shares["rr"], shares["ear"]))),
    )


def run_fig15(runs: int, executor=None):
    """Mean hotness index H per file size per policy."""
    return read_balance(file_sizes=FILE_SIZES, runs=runs, executor=executor)


def format_fig15(result) -> str:
    rows = [
        [policy.upper()] + [f"{100 * h[s]:.2f}%" for s in FILE_SIZES]
        for policy, h in result.items()
    ]
    return format_table(["policy"] + [f"F={s}" for s in FILE_SIZES], rows)


def claim_fig15(result) -> List[str]:
    curves = {policy: [h[s] for s in FILE_SIZES]
              for policy, h in result.items()}
    return failed(
        *((curve == sorted(curve, reverse=True),
           f"{policy.upper()} H does not fall with file size")
          for policy, curve in curves.items()),
        *((curve[-1] < 0.07,
           f"{policy.upper()} H = {curve[-1]:.4f} at F={FILE_SIZES[-1]}, "
           "not near 1/R")
          for policy, curve in curves.items()),
        *((abs(result["rr"][s] - result["ear"][s]) < 0.02,
           f"EAR's H strays from RR's at F={s}")
          for s in FILE_SIZES),
    )


#: Every CLI-backed paper artefact, in ``repro list`` order.
ARTEFACTS: Tuple[Artefact, ...] = (
    Artefact(
        id="F3", command="fig3",
        title="Figure 3: Equation (1) violation probability.",
        options=[
            arg("--min-racks", type=at_least(2), default=14),
            arg("--max-racks", type=at_least(2), default=40),
        ],
        scale=_fig3_scale, run=run_fig3,
        bench={"racks": range(14, 41, 2), "mc_trials": 40_000},
        format=format_fig3, claim=claim_fig3,
    ),
    Artefact(
        id="T1", command="theorem1",
        title="Theorem 1: measured redraws vs the bound.",
        options=[
            arg("--racks", type=int, default=20),
            arg("--k", type=at_least(1), default=10),
            arg("--stripes", type=at_least(1), default=300),
            SEED,
        ],
        scale=_theorem1_scale, run=run_theorem1,
        bench={"racks": 20, "k": 10, "stripes": 400, "seed": 5},
        format=format_theorem1, claim=claim_theorem1,
    ),
    Artefact(
        id="A1a", command="fig8a",
        title="Figure 8(a): encoding throughput vs (n, k).",
        options=TESTBED, scale=_testbed_scale, run=run_fig8a,
        bench={"stripes": 96, "seeds": 5},
        format=format_fig8a, claim=claim_fig8a,
    ),
    Artefact(
        id="A1b", command="fig8b",
        title="Figure 8(b): encoding throughput vs UDP cross-traffic.",
        options=TESTBED, scale=_testbed_scale, run=run_fig8b,
        bench={"stripes": 96, "seeds": 3},
        format=format_fig8b, claim=claim_fig8b,
    ),
    Artefact(
        id="A2", command="fig9",
        title="Figure 9: write response times while encoding.",
        options=TESTBED, scale=_testbed_scale, run=run_fig9,
        bench={"stripes": 96, "seeds": 3},
        format=format_fig9, claim=claim_fig9,
    ),
    Artefact(
        id="A3", command="fig10",
        title="Figure 10: SWIM MapReduce jobs before encoding.",
        options=[arg("--jobs", type=at_least(1), default=30), SEED],
        scale=lambda args: {"jobs": args.jobs, "seeds": (args.seed,)},
        run=run_fig10,
        bench={"jobs": 30, "seeds": (0, 1)},
        format=format_fig10, claim=claim_fig10,
    ),
    Artefact(
        id="B1", command="fig12",
        title="Figure 12 / Table I: validation curves and write RTs.",
        options=[arg("--stripes", type=at_least(1), default=96), SEED],
        scale=lambda args: {"stripes": args.stripes, "seed": args.seed},
        run=run_fig12,
        bench={"stripes": 96, "seed": 0, "table1_seeds": (0, 1)},
        format=format_fig12, claim=claim_fig12,
    ),
    _fig13("B2a", "fig13a", "Figure 13(a): gains vs k.",
           sweep_k, "k", int, claim_fig13a),
    _fig13("B2b", "fig13b", "Figure 13(b): gains vs n - k.",
           sweep_m, "n-k", int, claim_fig13b),
    _fig13("B2c", "fig13c", "Figure 13(c): gains vs link bandwidth.",
           sweep_bandwidth, "Gb/s", str, claim_fig13c),
    _fig13("B2d", "fig13d", "Figure 13(d): gains vs write request rate.",
           sweep_write_rate, "req/s", str, claim_fig13d),
    _fig13("B2e", "fig13e",
           "Figure 13(e): gains vs EAR's tolerable rack failures.",
           sweep_rack_tolerance, "t", int, claim_fig13e,
           tolerances=(1, 2, 4)),
    _fig13("B2f", "fig13f", "Figure 13(f): gains vs replication factor.",
           sweep_replicas, "replicas", int, claim_fig13f,
           replica_counts=(2, 3, 5, 8)),
    Artefact(
        id="C1", command="fig14", title="Figure 14: storage load balance.",
        options=[
            arg("--blocks", type=at_least(1), default=10_000),
            arg("--runs", type=at_least(1), default=10),
        ] + SWEEP,
        scale=lambda args: {"blocks": args.blocks, "runs": args.runs},
        run=run_fig14,
        bench={"blocks": 10_000, "runs": 20},
        format=format_fig14, claim=claim_fig14,
    ),
    Artefact(
        id="C2", command="fig15",
        title="Figure 15: read load balance (hotness index).",
        options=[arg("--runs", type=at_least(1), default=10)] + SWEEP,
        scale=lambda args: {"runs": args.runs},
        run=run_fig15,
        bench={"runs": 12},
        format=format_fig15, claim=claim_fig15,
    ),
)
