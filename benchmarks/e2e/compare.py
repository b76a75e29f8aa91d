#!/usr/bin/env python3
"""Compare result sets of ``run.py``: one row per (metric, workload).

``compare.py BASE.json OTHER.json [MORE.json ...]`` judges every later set
against the first.  A row gives both reported values (a timing's is its best
pass), the median, quartiles and count of the samples behind each, the
bound, the ratio OTHER/BASE of the values and a verdict:

* ``regressed``  — worse than the base by more than the bound;
* ``improved``   — better by more than the base's own inter-quartile spread;
* ``unresolved`` — the base's spread is wider than the bound and the two
  sets' samples overlap, so the runs cannot tell;
* ``unchanged``  — none of the above.

Bounds come from ``BENCHMARK.json`` for the metrics every workload reports
(``setup_s`` may also worsen by a quarter of a second), and from
``WORKLOAD_BOUNDS`` below for the rates only one workload has.
Exits non-zero on any ``regressed`` row or any rise in the share of failed
operations.  With ``--same-commit`` (two sets of one commit, same seed) it
also exits non-zero on any ``unresolved`` row and on any difference in an
exact count or a ``sim_fingerprint``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

REPO = Path(__file__).resolve().parents[2]

#: Regression bounds of the rates that one workload each reports.
WORKLOAD_BOUNDS: Dict[str, float] = {
    "place_us_p50": 0.10,
    "place_us_p99": 0.15,
    "encode_mb_per_s": 0.10,
    "decode_mb_per_s": 0.10,
    "repair_mb_per_s": 0.10,
    "recover_s": 0.10,
}

#: ``setup_s`` is a few tenths of a second, most of it one interpreter
#: start's imports: it may also worsen by this much before it counts.
SETUP_FLOOR_S = 0.25


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def gated_rows(
    contract: Dict[str, Any], results: Dict[str, Any]
) -> Iterator[Tuple[str, str, str, float, Dict[str, Any]]]:
    """(metric, workload, better, bound, sample) for every gated pair."""
    per_layer = {entry["name"]: entry for entry in contract["per_layer"]}
    for workload, entry in results["workloads"].items():
        untraced = entry.get("untraced")
        if untraced is None:
            continue
        for metric in contract["end_to_end"]:
            sample = untraced["end_to_end"][metric["name"]]
            bound = metric["bound"]
            if metric["name"] == "setup_s":
                bound = max(bound, SETUP_FLOOR_S / sample["value"])
            yield metric["name"], workload, metric["better"], bound, sample
        for name, sample in untraced.get("specific", {}).items():
            yield (
                name, workload, per_layer[name]["better"],
                WORKLOAD_BOUNDS[name], sample,
            )


def verdict(
    base: Dict[str, Any], other: Dict[str, Any], better: str, bound: float
) -> Tuple[str, float]:
    """The verdict for one row and the ratio OTHER/BASE of the values."""
    ratio = other["value"] / base["value"]
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    spread = (base["q3"] - base["q1"]) / base["median"]
    sign = 1.0 if better == "lower" else -1.0
    all_worse = min(sign * v for v in other["values"]) > max(
        sign * v for v in base["values"]
    )
    all_better = max(sign * v for v in other["values"]) < min(
        sign * v for v in base["values"]
    )
    if spread > bound and not (all_worse or all_better):
        return "unresolved", ratio
    if worse_by > bound:
        return "regressed", ratio
    if -worse_by > spread and -worse_by > 0.01:
        return "improved", ratio
    return "unchanged", ratio


def failed_share(results: Dict[str, Any], workload: str) -> float:
    run = results["workloads"][workload]["untraced"]
    return run["failed"] / max(run["attempted"], 1)


def exact_differences(
    base: Dict[str, Any], other: Dict[str, Any]
) -> List[str]:
    """Every exact count or fingerprint that differs between two sets."""
    out = []
    for workload, entry in base["workloads"].items():
        theirs = other["workloads"].get(workload, {})
        for kind in ("untraced", "traced"):
            mine, yours = entry.get(kind), theirs.get(kind)
            if mine is None or yours is None:
                continue
            if mine["sim_fingerprint"] != yours["sim_fingerprint"]:
                out.append(f"{workload} ({kind}): sim_fingerprint differs")
            for name in sorted(set(mine["counts"]) | set(yours["counts"])):
                a = mine["counts"].get(name, 0)
                b = yours["counts"].get(name, 0)
                if a != b:
                    out.append(f"{workload} ({kind}): {name} {a} -> {b}")
    return out


def layer_rows(
    contract: Dict[str, Any], base: Dict[str, Any], other: Dict[str, Any]
) -> Iterator[str]:
    """Per-layer metrics of the traced runs, side by side (no verdict)."""
    for workload, entry in base["workloads"].items():
        mine = entry.get("traced")
        yours = other["workloads"].get(workload, {}).get("traced")
        if mine is None or yours is None:
            continue
        for metric in contract["per_layer"]:
            a = mine["metrics"][metric["name"]]
            b = yours["metrics"][metric["name"]]
            if a or b:
                ratio = f"{b / a:.3f}" if a else "-"
                yield (
                    f"| {metric['name']} | {workload} | {a:.6g} | {b:.6g} "
                    f"| {metric['unit']} | {ratio} |"
                )


def fmt(sample: Dict[str, Any]) -> str:
    return (
        f"{sample['value']:.5g}; {sample['median']:.5g} "
        f"[{sample['q1']:.5g}, {sample['q3']:.5g}] n={sample['n']}"
    )


def compare(
    contract: Dict[str, Any],
    base: Dict[str, Any],
    other: Dict[str, Any],
    same_commit: bool,
    layers: bool,
) -> int:
    """Print the table for one pair of sets; returns the exit status."""
    status = 0
    theirs = {
        (metric, workload): sample
        for metric, workload, __, __, sample in gated_rows(contract, other)
    }
    print("| metric | workload | base value; median [q1, q3] | other value; "
          "median [q1, q3] | bound | other/base | verdict |")
    print("|---|---|---|---|---:|---:|---|")
    for metric, workload, better, bound, sample in gated_rows(contract, base):
        if (metric, workload) not in theirs:
            continue
        word, ratio = verdict(
            sample, theirs[(metric, workload)], better, bound
        )
        print(
            f"| {metric} | {workload} | {fmt(sample)} "
            f"| {fmt(theirs[(metric, workload)])} | {bound:.0%} "
            f"| {ratio:.3f} | {word} |"
        )
        if word == "regressed" or (same_commit and word == "unresolved"):
            status = 1
    for workload in base["workloads"]:
        if workload not in other["workloads"]:
            continue
        before = failed_share(base, workload)
        after = failed_share(other, workload)
        word = "regressed" if after > before else "unchanged"
        print(f"| failed_ops_share | {workload} | {before:.6f} "
              f"| {after:.6f} | 0% | - | {word} |")
        if after > before:
            status = 1
    differences = exact_differences(base, other)
    print()
    if differences:
        print("exact counts and sim_fingerprints that differ:")
        for line in differences:
            print(f"  {line}")
        if same_commit:
            status = 1
    else:
        print("every exact count and every sim_fingerprint is identical")
    if layers:
        print()
        print("| per-layer metric | workload | base | other | unit "
              "| other/base |")
        print("|---|---|---:|---:|---|---:|")
        for line in layer_rows(contract, base, other):
            print(line)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="results file the others are judged by")
    parser.add_argument("others", nargs="+", help="results files to judge")
    parser.add_argument(
        "--same-commit", action="store_true",
        help="the sets are repeats of one commit and seed: also fail on "
             "unresolved rows and on any differing count or fingerprint",
    )
    parser.add_argument(
        "--layers", action="store_true",
        help="also list the per-layer metrics of the traced runs",
    )
    args = parser.parse_args(argv)
    contract = load(str(REPO / "BENCHMARK.json"))
    base = load(args.base)
    status = 0
    for path in args.others:
        print(f"## {path} against {args.base}\n")
        status |= compare(
            contract, base, load(path), args.same_commit, args.layers
        )
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
