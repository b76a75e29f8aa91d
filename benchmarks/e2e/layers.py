"""Per-layer metrics: their names, and how one traced pass yields them.

``PER_LAYER`` is the list ``BENCHMARK.json`` repeats (the smoke test holds
the two equal).  Every workload reports every metric; a layer the workload
never enters reports 0, which is the claim "this workload bypasses that
layer" in measured form.

Three kinds of value, told apart by name:

* ``*_s`` — host seconds from the spans of :mod:`tracing` (per-resume for
  simulation processes), so they carry the tracing overhead;
* counts — from ``repro.sim.metrics.measure_ops()`` and ``Network.stats``;
  they repeat exactly for a seed;
* ``*.sim_*`` — simulated statistics returned by the program (what the
  modelled cluster did); exact for a seed, and not a measure of host speed.

The six workload-specific rates at the end (``place_us_*``,
``*_mb_per_s``, ``recover_s``) are measured on the *untraced* passes by the
workloads' own clock reads.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from tracing import LAYERS, ROOT, Tracer

#: (name, unit, better).  ``better`` for a ``sim_`` value names the
#: direction the paper argues for; a model fix may move it on purpose.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("core.place_s", "s", "lower"),
    ("core.plan_s", "s", "lower"),
    ("core.relocate_s", "s", "lower"),
    ("core.monitor_s", "s", "lower"),
    ("core.redraw_attempts", "count", "lower"),
    ("core.redraw_yield", "ratio", "higher"),
    ("core.maxflow_bfs_builds", "count", "lower"),
    ("core.maxflow_augmentations", "count", "lower"),
    ("core.sim_rr_violating_share", "ratio", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.kernel_self_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("netsim.transfer_s", "s", "lower"),
    ("netsim.transfers", "count", "lower"),
    ("netsim.cross_rack_transfers", "count", "lower"),
    ("netsim.bytes_cross_rack", "bytes", "lower"),
    ("netsim.aborted", "count", "lower"),
    ("hdfs.namenode_s", "s", "lower"),
    ("hdfs.client_s", "s", "lower"),
    ("hdfs.encoder_s", "s", "lower"),
    ("hdfs.mapreduce_s", "s", "lower"),
    ("hdfs.sim_encode_mb_per_s_rr", "MB/s", "higher"),
    ("hdfs.sim_encode_mb_per_s_ear", "MB/s", "higher"),
    ("hdfs.sim_encode_gain", "ratio", "higher"),
    ("hdfs.sim_write_gain", "ratio", "higher"),
    ("hdfs.sim_cross_rack_downloads_rr", "count", "lower"),
    ("hdfs.sim_cross_rack_downloads_ear", "count", "lower"),
    ("hdfs.sim_makespan_s", "s", "lower"),
    ("erasure.encode_s", "s", "lower"),
    ("erasure.decode_s", "s", "lower"),
    ("erasure.repair_s", "s", "lower"),
    ("erasure.plane_s", "s", "lower"),
    ("erasure.gf_symbol_mults", "count", "lower"),
    ("erasure.gf_kernel_calls", "count", "lower"),
    ("erasure.decode_matrix_hit_ratio", "ratio", "higher"),
    ("pipeline.fold_s", "s", "lower"),
    ("pipeline.fold_mb_per_s", "MB/s", "higher"),
    ("pipeline.encoder_s", "s", "lower"),
    ("pipeline.hops", "count", "lower"),
    ("pipeline.hop_transfers", "count", "lower"),
    ("pipeline.replans", "count", "lower"),
    ("pipeline.fallbacks", "count", "lower"),
    ("pipeline.sim_encode_window_s", "s", "lower"),
    ("pipeline.sim_core_bytes", "bytes", "lower"),
    ("faults.repair_queue_s", "s", "lower"),
    ("faults.scrub_s", "s", "lower"),
    ("recovery.degraded_read_s", "s", "lower"),
    ("recovery.repairs", "count", "lower"),
    ("recovery.degraded_reads", "count", "lower"),
    ("recovery.unrecoverable", "count", "lower"),
    ("recovery.sim_repair_time_mean_s", "s", "lower"),
    ("recovery.sim_repair_time_p95_s", "s", "lower"),
    ("recovery.sim_cross_rack_repair_bytes", "bytes", "lower"),
    ("recovery.sim_time_at_margin_zero_s", "s", "lower"),
    ("journal.append_s", "s", "lower"),
    ("journal.records_appended", "count", "lower"),
    ("journal.bytes_appended", "bytes", "lower"),
    ("journal.bytes_per_record", "bytes", "lower"),
    ("journal.segments_rotated", "count", "lower"),
    ("journal.replay_s", "s", "lower"),
    ("journal.replayed_ops", "count", "lower"),
    ("parallel.overhead_s", "s", "lower"),
    ("parallel.speedup_w2", "ratio", "higher"),
    # Self-time share of the traced pass per layer; with other_share they
    # add up to 1.
    ("share.core", "ratio", "lower"),
    ("share.sim.engine", "ratio", "lower"),
    ("share.sim.netsim", "ratio", "lower"),
    ("share.hdfs", "ratio", "lower"),
    ("share.erasure", "ratio", "lower"),
    ("share.pipeline", "ratio", "lower"),
    ("share.faults", "ratio", "lower"),
    ("share.journal", "ratio", "lower"),
    ("share.parallel", "ratio", "lower"),
    ("other_s", "s", "lower"),
    ("other_share", "ratio", "lower"),
    ("traced_wall_s", "s", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
    ("place_us_p50", "us", "lower"),
    ("place_us_p99", "us", "lower"),
    ("encode_mb_per_s", "MB/s", "higher"),
    ("decode_mb_per_s", "MB/s", "higher"),
    ("repair_mb_per_s", "MB/s", "higher"),
    ("recover_s", "s", "lower"),
)

#: Exact counts of a pass, as (metric name, ``PERF`` counter).
OPS_COUNTS: Tuple[Tuple[str, str], ...] = (
    ("core.redraw_attempts", "ear.redraw_attempts"),
    ("core.maxflow_bfs_builds", "maxflow.bfs_builds"),
    ("core.maxflow_augmentations", "maxflow.augmentations"),
    ("sim.events", "sim.events"),
    ("erasure.gf_symbol_mults", "gf.symbol_mults"),
    ("erasure.gf_kernel_calls", "gf.kernel_calls"),
    ("pipeline.hops", "pipeline.hops"),
    ("pipeline.hop_transfers", "pipeline.hop_transfers"),
    ("pipeline.replans", "pipeline.replans"),
    ("pipeline.fallbacks", "pipeline.fallbacks"),
    ("recovery.repairs", "recovery.repairs"),
    ("recovery.degraded_reads", "recovery.degraded_reads"),
    ("journal.records_appended", "journal.records_appended"),
    ("journal.bytes_appended", "journal.bytes_appended"),
    ("journal.segments_rotated", "journal.segments_rotated"),
    ("journal.replayed_ops", "journal.replayed_ops"),
)


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    rank = max(0, -(-len(ordered) * p // 100) - 1)
    return ordered[int(rank)]


def pass_rates(timing: Dict[str, Any]) -> Dict[str, float]:
    """The workload-specific rates of one untraced pass, from the
    workload's own clock reads (nothing for a workload without them)."""
    out: Dict[str, float] = {}
    place = sorted(timing.get("place_ear_s", ()))
    if place:
        out["place_us_p50"] = percentile(place, 50) * 1e6
        out["place_us_p99"] = percentile(place, 99) * 1e6
    for phase in ("encode", "decode", "repair"):
        if f"{phase}_s" in timing:
            out[f"{phase}_mb_per_s"] = (
                timing["source_mb"] / timing[f"{phase}_s"]
            )
    if "recover_s" in timing:
        out["recover_s"] = timing["recover_s"]
    return out


def specific_metrics(
    timings: List[Dict[str, Any]],
) -> Tuple[Dict[str, float], List[Dict[str, float]]]:
    """The workload-specific rates of a run — each the best over its
    passes, as ``wall_s`` is — and the rates of every pass."""
    per_pass = [pass_rates(timing) for timing in timings]
    best = {
        name: (max if name.endswith("_mb_per_s") else min)(
            rates[name] for rates in per_pass
        )
        for name in per_pass[0]
    }
    return best, per_pass


def _sim_metrics(workload: str, sim: Dict[str, Any]) -> Dict[str, float]:
    """Simulated statistics of a pass, under their per-layer names."""
    out: Dict[str, float] = {}
    if workload == "transition_largescale":
        rr, ear = sim["rr"], sim["ear"]
        out["hdfs.sim_encode_mb_per_s_rr"] = rr["encode_throughput_mb_s"]
        out["hdfs.sim_encode_mb_per_s_ear"] = ear["encode_throughput_mb_s"]
        out["hdfs.sim_encode_gain"] = sim["encode_ratio"]
        out["hdfs.sim_write_gain"] = sim.get("write_ratio", 0.0)
        out["hdfs.sim_cross_rack_downloads_rr"] = rr["cross_rack_downloads"]
        out["hdfs.sim_cross_rack_downloads_ear"] = ear["cross_rack_downloads"]
        out["hdfs.sim_makespan_s"] = max(
            rr["encoding_time"], ear["encoding_time"]
        )
    elif workload == "placement_metadata":
        rr, ear = sim["rr"], sim["ear"]
        out["core.sim_rr_violating_share"] = (
            rr["violating_stripes"] / rr["stripes"]
        )
        out["hdfs.sim_cross_rack_downloads_rr"] = rr["cross_rack_downloads"]
        out["hdfs.sim_cross_rack_downloads_ear"] = ear["cross_rack_downloads"]
    elif workload == "mapreduce_reads":
        out["hdfs.sim_makespan_s"] = max(
            sim["rr"]["makespan_s"], sim["ear"]["makespan_s"]
        )
    elif workload == "pipeline_archival":
        trial = sim["pipeline"]
        out["pipeline.sim_encode_window_s"] = float(trial["encode_window"])
        out["pipeline.sim_core_bytes"] = float(trial["core_bytes"])
        out["recovery.sim_time_at_margin_zero_s"] = sum(
            float(t["time_at_margin_zero"]) for t in sim.values()
        )
        out["recovery.unrecoverable"] = sum(
            len(t["unrecoverable"]) for t in sim.values()
        )
    elif workload == "recovery_storm":
        summaries = [storm["recovery"] for storm in sim.values()]
        counts = [float(s["repair_time_count"]) for s in summaries]
        out["recovery.sim_repair_time_mean_s"] = sum(
            float(s["repair_time_mean"]) * n
            for s, n in zip(summaries, counts)
        ) / max(sum(counts), 1.0)
        out["recovery.sim_repair_time_p95_s"] = max(
            float(s["repair_time_p95"]) for s in summaries
        )
        out["recovery.sim_cross_rack_repair_bytes"] = sum(
            float(s["cross_rack_repair_bytes"]) for s in summaries
        )
        out["recovery.sim_time_at_margin_zero_s"] = sum(
            float(s["time_at_margin_zero"]) for s in summaries
        )
        out["recovery.unrecoverable"] = sum(
            len(storm["unrecoverable"]) for storm in sim.values()
        )
    return out


def layer_metrics(
    workload: str,
    tracer: Tracer,
    ops: Dict[str, int],
    sim: Dict[str, Any],
    traced_wall_s: float,
    source_mb: float,
) -> Dict[str, float]:
    """The per-layer metrics one traced pass yields (0 where a layer was
    not entered); the harness adds those that need the untraced passes."""
    out: Dict[str, float] = {name: 0.0 for name, __, __ in PER_LAYER}
    total, self_time = tracer.span_total, tracer.span_self

    out["core.place_s"] = total("core.place_ear", "core.place_rr")
    out["core.plan_s"] = total("core.plan")
    out["core.relocate_s"] = total("core.relocate")
    out["core.monitor_s"] = total("core.monitor")
    out["sim.run_s"] = total("sim.run")
    out["sim.kernel_self_s"] = self_time("sim.run")
    out["netsim.transfer_s"] = total("netsim.transfer")
    out["hdfs.namenode_s"] = total("hdfs.namenode")
    out["hdfs.client_s"] = total("hdfs.client")
    out["hdfs.encoder_s"] = total("hdfs.encoder")
    out["hdfs.mapreduce_s"] = total("hdfs.mapreduce")
    out["erasure.encode_s"] = total("erasure.encode")
    out["erasure.decode_s"] = total("erasure.decode")
    out["erasure.repair_s"] = total("erasure.repair")
    out["erasure.plane_s"] = total("erasure.plane")
    out["pipeline.fold_s"] = total("pipeline.fold")
    out["pipeline.encoder_s"] = total("pipeline.encoder")
    out["faults.repair_queue_s"] = total(
        "faults.repair_queue", "faults.enqueue"
    )
    out["faults.scrub_s"] = total("faults.scrub")
    out["recovery.degraded_read_s"] = total("recovery.degraded_read")
    out["journal.append_s"] = total("journal.append")
    out["journal.replay_s"] = total("journal.replay")
    # map_trials minus the trials' own time, at workers = 0.
    out["parallel.overhead_s"] = self_time("parallel.map_trials")

    for name, counter in OPS_COUNTS:
        out[name] = ops.get(counter, 0)
    placed = tracer.calls.get("core.place_ear", 0)
    if out["core.redraw_attempts"]:
        out["core.redraw_yield"] = placed / out["core.redraw_attempts"]
    if out["sim.run_s"]:
        out["sim.events_per_s"] = out["sim.events"] / out["sim.run_s"]
    hits = ops.get("codec.decode_matrix_hits", 0)
    misses = ops.get("codec.decode_matrix_misses", 0)
    if hits + misses:
        out["erasure.decode_matrix_hit_ratio"] = hits / (hits + misses)
    if out["journal.records_appended"]:
        out["journal.bytes_per_record"] = (
            out["journal.bytes_appended"] / out["journal.records_appended"]
        )
    if out["pipeline.fold_s"] and source_mb:
        out["pipeline.fold_mb_per_s"] = source_mb / out["pipeline.fold_s"]
    for stats in tracer.transfer_stats:
        out["netsim.transfers"] += stats.transfers
        out["netsim.cross_rack_transfers"] += stats.cross_rack_transfers
        out["netsim.bytes_cross_rack"] += stats.bytes_cross_rack
        out["netsim.aborted"] += stats.aborted

    out.update(_sim_metrics(workload, sim))

    layer_self = tracer.layer_self()
    for layer, __ in LAYERS:
        out[f"share.{layer}"] = layer_self[layer] / traced_wall_s
    out["other_s"] = traced_wall_s - sum(layer_self.values())
    out["other_share"] = out["other_s"] / traced_wall_s
    out["traced_wall_s"] = traced_wall_s
    return out


def layers_report(results: Dict[str, Any]) -> str:
    """The traced runs of a results file as markdown: per workload, the
    self-time share of every layer and the call tree behind it."""
    provenance = results["provenance"]
    lines = [
        "# Traced layer tables",
        "",
        f"Seed {provenance['seed']}, commit `{provenance['git_commit']}`, "
        f"Python {provenance['python']}, numpy {provenance['numpy']}, "
        f"{provenance['nproc']} cores.  Self time = span minus the spans "
        "inside it; shares are of the traced pass's wall time.",
    ]
    for workload, entry in results["workloads"].items():
        traced = entry.get("traced")
        if traced is None:
            continue
        metrics = traced["metrics"]
        wall = metrics["traced_wall_s"]
        lines += [
            "",
            f"## {workload}",
            "",
            f"Traced pass {wall:.3f} s, "
            f"{metrics['trace_overhead_ratio']:.3f} x the untraced median.",
            "",
            "| layer | self share | self s |",
            "|---|---:|---:|",
        ]
        shares = [
            (metrics[f"share.{layer}"], layer) for layer, __ in LAYERS
        ] + [(metrics["other_share"], "(no wrapped layer)")]
        for share, layer in sorted(shares, reverse=True):
            if share:
                lines.append(f"| {layer} | {share:.1%} | {share * wall:.3f} |")
        lines += [
            "",
            "| parent | span | resumes | total s | self s | self share |",
            "|---|---|---:|---:|---:|---:|",
        ]
        for row in traced["edges"]:
            parent = "(pass)" if row["parent"] == ROOT else row["parent"]
            lines.append(
                f"| {parent} | {row['span']} | {row['resumes']} "
                f"| {row['total_s']:.3f} | {row['self_s']:.3f} "
                f"| {row['self_s'] / wall:.1%} |"
            )
    return "\n".join(lines) + "\n"
