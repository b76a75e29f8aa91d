#!/usr/bin/env python3
"""End-to-end benchmark of the EAR reproduction: one command, six workloads.

Two ways to run it, same code underneath:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this process.  The last line of standard output is one
    JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
    end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the
    per-layer metrics with ``--trace 1``.

``run.py [--workload NAME ...] [--seed N] [--quick] [--out FILE]``
    Every selected workload (default: all six), each in its own child
    process, one after the other: first the untraced run, then the traced
    one.  Prints every metric by name with its unit and writes one results
    file that ``compare.py`` reads.

A run is closed-loop and single-threaded: one pass starts when the previous
one has been verified, and nothing in a reported number uses a worker pool
(``parallel.speedup_w2`` excepted, which is reported and never gated).
Host time is ``time.perf_counter``; anything simulated is named ``sim_``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
#: Scratch space (journal directories, child result files); inside the
#: checkout, ignored by git, removed when the run ends.
WORK_ROOT = HERE / ".work"

#: Knobs that would change what runs; a run starts with none of them set.
ENV_KNOBS = (
    "REPRO_SIM_SCHEDULER",
    "REPRO_GF_BACKEND",
    "REPRO_PARALLEL_CHECK",
    "REPRO_SIM_POOL_DEBUG",
)

#: Set-up is repeated this often; ``setup_s`` uses the median round.
SETUP_ROUNDS = 3
#: A run never reports from fewer timed passes than this.
MIN_PASSES = 3


def sample(values: List[float], value: float) -> Dict[str, Any]:
    """A metric of one run as the results file keeps it: the reported
    ``value``, and the median, quartiles and count of the samples behind it
    (which show how noisy the run was)."""
    if len(values) > 1:
        q1, __, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": value,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": list(values),
    }


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
class Run:
    """The passes of one workload and what they measured."""

    def __init__(self, name: str, seed: int, quick: bool, workdir: str):
        for knob in ENV_KNOBS:
            os.environ.pop(knob, None)
        sys.path.insert(0, str(REPO / "src"))
        import workloads  # imports repro; part of set-up

        from repro.erasure import reset_memo_caches
        from repro.sim.metrics import measure_ops

        self.reset_memo_caches = reset_memo_caches
        self.measure_ops = measure_ops
        self.workload = workloads.WORKLOADS[name]
        self.module = workloads
        self.seed = seed
        self.quick = quick
        self.workdir = workdir
        self.import_s = time.perf_counter() - _PROCESS_START

        self.timings: List[Dict[str, Any]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.counts: Optional[Dict[str, int]] = None
        self.fingerprint: Optional[str] = None
        self.sim: Dict[str, Any] = {}
        self.mismatches: List[str] = []

    # ------------------------------------------------------------------
    def set_up(self) -> Dict[str, Any]:
        """Fixtures plus one quick-scale warm-up pass, ``SETUP_ROUNDS`` times.

        Imports happen once per process and are charged in full; the
        repeatable part is charged at its median.
        """
        rounds = []
        state = None
        for __ in range(SETUP_ROUNDS):
            start = time.perf_counter()
            state = self.workload.setup(self.seed, self.quick, self.workdir)
            warm = self.workload.setup(self.seed, True, self.workdir)
            outcome = self.workload.verify(warm, self.workload.execute(warm))
            rounds.append(time.perf_counter() - start)
            if outcome.failed:
                self.failures.extend(f"warm-up: {f}" for f in outcome.failures)
                self.failed += outcome.failed
        self.state = state
        return {
            "import_s": self.import_s,
            "rounds_s": rounds,
            "setup_s": self.import_s + statistics.median(rounds),
        }

    def one_pass(self) -> float:
        """One timed pass, verified after the clock stops; returns seconds."""
        self.reset_memo_caches()
        gc.collect()
        with self.measure_ops() as measured:
            start = time.perf_counter()
            outputs = self.workload.execute(self.state)
            wall = time.perf_counter() - start
        outcome = self.workload.verify(self.state, outputs)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.failures.extend(outcome.failures)
        self.timings.append(outputs.get("timing", {}))
        self.sim = outcome.sim
        # The work of a pass is a function of the seed alone: every pass,
        # traced or not, must count the same and simulate the same.
        fingerprint = outcome.fingerprint()
        if self.counts is None:
            self.counts, self.fingerprint = measured.ops, fingerprint
        else:
            if measured.ops != self.counts:
                self.mismatches.append("exact counts differ between passes")
            if fingerprint != self.fingerprint:
                self.mismatches.append(
                    "sim_fingerprint differs between passes"
                )
        return wall

    def passes(
        self,
        seconds: float,
        repeats: Optional[int],
        at_least: int = 1,
        before_each: Optional[Callable[[], None]] = None,
    ) -> List[float]:
        """Passes for ``seconds`` (or exactly ``repeats``); their seconds."""
        walls: List[float] = []
        began = time.perf_counter()
        while True:
            if before_each is not None:
                before_each()
            walls.append(self.one_pass())
            done = len(walls)
            if repeats is not None:
                if done >= repeats:
                    return walls
                continue
            spent = time.perf_counter() - began
            # Stop where one more pass would overshoot by more than half.
            if done >= at_least and spent + 0.5 * spent / done > seconds:
                return walls

    def two_worker_seconds(self) -> float:
        """Host seconds of the transition trials at ``workers=2``."""
        from repro.parallel.executor import SweepExecutor

        specs = self.module.transition_specs(self.state)
        start = time.perf_counter()
        SweepExecutor(workers=2).map_trials(specs)
        return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args: argparse.Namespace) -> Dict[str, Any]:
    """Driver mode: set up, measure, verify; returns the run's document."""
    import layers

    name = args.workload[0]
    workdir = WORK_ROOT / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(name, args.seed, args.quick, str(workdir))
        setup = run.set_up()
        repeats = args.repeats
        if repeats is None and args.quick:
            repeats = 2
        document: Dict[str, Any] = {
            "workload": name,
            "seed": args.seed,
            "quick": args.quick,
            "trace": args.trace,
            "setup": setup,
        }
        if args.trace == 0:
            walls = run.passes(args.seconds, repeats, at_least=MIN_PASSES)
            # Other tenants of the host only ever add time, in bursts that
            # can cover half the passes of a run: the fastest pass is the
            # steadiest estimate of what the code costs.
            metrics = {
                "setup_s": setup["setup_s"],
                "wall_s": min(walls),
                "peak_rss_mb": peak_rss_mb(),
            }
            document["end_to_end"] = {
                "setup_s": sample(
                    [run.import_s + r for r in setup["rounds_s"]],
                    metrics["setup_s"],
                ),
                "wall_s": sample(walls, metrics["wall_s"]),
                "peak_rss_mb": sample(
                    [metrics["peak_rss_mb"]], metrics["peak_rss_mb"]
                ),
            }
            best, per_pass = layers.specific_metrics(run.timings)
            document["specific"] = {
                name: sample([rates[name] for rates in per_pass], best[name])
                for name in best
            }
        else:
            from tracing import Tracer

            # A third of the time untraced (the overhead ratio's base and
            # the workload-specific rates), the rest traced; only the last
            # traced pass's spans are kept.
            once = None if repeats is None else 1
            untraced = run.passes(args.seconds / 3.0, once)
            best, __ = layers.specific_metrics(run.timings)
            tracer = Tracer()
            with tracer:
                traced = run.passes(
                    args.seconds * 2.0 / 3.0, once, before_each=tracer.reset
                )
            metrics = layers.layer_metrics(
                name, tracer, run.counts or {}, run.sim,
                traced_wall_s=traced[-1],
                source_mb=run.timings[0].get("source_mb", 0.0),
            )
            metrics.update(best)
            metrics["trace_overhead_ratio"] = min(traced) / min(untraced)
            if name == "transition_largescale":
                metrics["parallel.speedup_w2"] = (
                    min(untraced) / run.two_worker_seconds()
                )
            document["edges"] = tracer.edge_table()
            document["calls"] = dict(sorted(tracer.calls.items()))
            document["traced_walls_s"] = traced
            document["untraced_walls_s"] = untraced
        document.update({
            "metrics": metrics,
            "attempted": run.attempted,
            "failed": run.failed,
            "failures": run.failures[:20],
            "mismatches": sorted(set(run.mismatches)),
            "counts": dict(sorted((run.counts or {}).items())),
            "sim_fingerprint": run.fingerprint,
            "sim": run.sim,
        })
        return document
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(document: Dict[str, Any], contract: Dict[str, Any]) -> str:
    """The contract's last line: exactly the declared metrics, with units."""
    declared = contract["end_to_end" if document["trace"] == 0 else "per_layer"]
    metrics = {
        entry["name"]: {
            "value": document["metrics"][entry["name"]],
            "unit": entry["unit"],
        }
        for entry in declared
    }
    return json.dumps({
        "correct": document["failed"] == 0 and not document["mismatches"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": metrics,
    })


def print_metrics(document: Dict[str, Any], contract: Dict[str, Any]) -> None:
    """Every metric of a run by name, with its unit."""
    units = {
        entry["name"]: entry["unit"]
        for entry in contract["end_to_end"] + contract["per_layer"]
    }
    kind = "end-to-end" if document["trace"] == 0 else "per-layer (traced)"
    print(f"== {document['workload']} · seed {document['seed']} · {kind} ==")
    for name, value in document["metrics"].items():
        if value:
            print(f"  {name:40s} {value:>18.6g} {units.get(name, '')}")
    for name, entry in document.get("specific", {}).items():
        print(f"  {name:40s} {entry['value']:>18.6g} {units.get(name, '')}")
    print(
        f"  operations: {document['attempted']} attempted, "
        f"{document['failed']} failed; sim_fingerprint "
        f"{document['sim_fingerprint'][:16]}"
    )
    for problem in document["failures"] + document["mismatches"]:
        print(f"  !! {problem}")


# ----------------------------------------------------------------------
# Every workload, each in a child process
# ----------------------------------------------------------------------
def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    """What a reader needs to compare this file with another."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # not a git checkout
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "quick": args.quick,
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_1min_at_start": os.getloadavg()[0],
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_children(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    """Full mode: spawn one child per (workload, trace); merge the results."""
    names = args.workload or [w["name"] for w in contract["workloads"]]
    traces = [args.trace] if args.trace is not None else [0, 1]
    results: Dict[str, Any] = {"provenance": provenance(args), "workloads": {}}
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    status = 0
    try:
        for name in names:
            entry = results["workloads"].setdefault(name, {})
            for trace in traces:
                detail = WORK_ROOT / f"child-{os.getpid()}-{name}-{trace}.json"
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--detail", str(detail),
                ]
                if args.quick:
                    command.append("--quick")
                if args.repeats is not None:
                    command += ["--repeats", str(args.repeats)]
                child = subprocess.run(
                    command, stdout=subprocess.PIPE, text=True
                )
                if child.returncode != 0:
                    print(f"!! {name} (trace {trace}) exited "
                          f"{child.returncode}\n{child.stdout}")
                    status = 1
                    continue
                with open(detail, encoding="utf-8") as handle:
                    document = json.load(handle)
                detail.unlink()
                print_metrics(document, contract)
                entry["untraced" if trace == 0 else "traced"] = document
                if document["failed"] or document["mismatches"]:
                    status = 1
            untraced, traced = entry.get("untraced"), entry.get("traced")
            if untraced and traced:
                same = (
                    untraced["sim_fingerprint"] == traced["sim_fingerprint"]
                    and untraced["counts"] == traced["counts"]
                )
                entry["traced_equals_untraced"] = same
                if not same:
                    print(f"!! {name}: tracing changed the counts or the "
                          "sim_fingerprint")
                    status = 1
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1, sort_keys=True)
            handle.write("\n")
        sys.path.insert(0, str(HERE))
        import layers

        tables = out.with_suffix(".layers.md")
        tables.write_text(layers.layers_report(results), encoding="utf-8")
        print(f"results written to {out}, layer tables to {tables}")
    return status


# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", action="append",
        help="workload to run (repeatable; default: all six)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long one run measures (default: run_seconds of "
             "BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: untraced, end-to-end metrics; 1: traced, per-layer "
             "metrics; omitted: both, in child processes",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="run exactly this many timed passes instead of --seconds",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="every workload scaled to under two seconds, two passes",
    )
    parser.add_argument("--out", help="full mode: write the results file here")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (REPO / "src" / "repro").is_dir():
        raise SystemExit(
            f"{REPO / 'src' / 'repro'} is missing: the benchmark measures "
            "the repository's program and cannot run without it"
        )
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.repeats is not None and args.repeats < 1:
        raise SystemExit("--repeats must be at least 1")
    known = [w["name"] for w in contract["workloads"]]
    for name in args.workload or ():
        if name not in known:
            raise SystemExit(f"unknown workload {name!r}; choose from {known}")
    single = (
        args.workload is not None
        and len(args.workload) == 1
        and args.trace is not None
    )
    if not single:
        return run_children(args, contract)
    sys.path.insert(0, str(HERE))
    document = run_workload(args)
    print_metrics(document, contract)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(document, handle, default=repr)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # the parent's or another run's files are still there
    print(result_line(document, contract))
    return 0


if __name__ == "__main__":
    sys.exit(main())
