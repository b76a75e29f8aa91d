"""Strategy head-to-heads: RR vs EAR vs pipelined archival encoding.

The question this subsystem exists to answer: *how much archival window
and core-link traffic does hop-to-hop pipelining save over the paper's
download-and-encode operation, and does that hold when nodes die
mid-encode?*  Each contender is a (placement policy, transition
strategy) pair:

* ``rr``        — random placement, download-and-encode (the baseline CFS);
* ``ear``       — EAR placement, download-and-encode (the paper);
* ``pipeline``  — EAR placement, pipelined encoding (:mod:`repro.pipeline`).

One trial builds a storm cluster, optionally fails a replica-heavy node
five seconds into the encoding wave, runs the wave to completion, then
(when disturbed) drains repairs — reporting the encoding window, encode
throughput, total and cross-rack byte deltas of the wave, degraded-
window exposure, and the pipeline's re-plan/fallback counts.  For the
pipeline contender every encoded stripe's parity payloads are re-checked
against the whole-stripe codec (the byte-identity oracle).

``pipeline_trial`` is module-level and all-scalar so the grid rides
:func:`~repro.parallel.executor.run_grid`: parallel across processes
and byte-identical to the in-process pass under
``REPRO_PARALLEL_CHECK=1``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.stripe import StripeState
from repro.erasure.codec import CodeParams
from repro.faults.chaos import NODE_LOSS, ChaosEvent
from repro.parallel.executor import SweepExecutor, run_grid
from repro.recovery.storm import (
    build_storm_cluster,
    busiest_node,
    drain,
    encode_all,
    finish_report,
    inject_faults,
)

#: Contender name -> (placement policy, transition strategy).
CONTENDER_CONFIGS: Dict[str, Tuple[str, str]] = {
    "rr": ("rr", "download"),
    "ear": ("ear", "download"),
    "pipeline": ("ear", "pipeline"),
}

#: Contenders compared by default, in canonical order.
CONTENDERS: Tuple[str, ...] = ("rr", "ear", "pipeline")


def pipeline_trial(
    seed: int = 0,
    contender: str = "pipeline",
    code_n: int = 6,
    code_k: int = 4,
    num_racks: int = 8,
    nodes_per_rack: int = 4,
    num_stripes: int = 6,
    block_size: int = 256_000,
    ear_c: int = 2,
    chunk_count: int = 4,
    disturb: bool = True,
) -> Dict[str, object]:
    """One strategy run as a sweep trial (module-level, picklable).

    With ``disturb`` the replica-heaviest node — almost certainly on
    some stripe's pipeline route — fails permanently one second into
    the encoding wave (mid-wave at these cluster sizes), exercising the
    abort → re-plan → fallback ladder; without it the trial measures the
    undisturbed encoding wave only.
    """
    try:
        policy, strategy = CONTENDER_CONFIGS[contender]
    except KeyError:
        raise ValueError(
            f"unknown contender {contender!r}; choose from "
            f"{list(CONTENDERS)}"
        ) from None
    sc = build_storm_cluster(
        policy=policy,
        seed=seed,
        num_racks=num_racks,
        nodes_per_rack=nodes_per_rack,
        num_stripes=num_stripes,
        code=CodeParams(code_n, code_k),
        block_size=block_size,
        ear_c=ear_c,
        strategy=strategy,
        pipeline_chunks=chunk_count,
    )
    stats = sc.setup.network.stats
    t0 = sc.sim.now
    bytes0 = stats.bytes_total
    cross0 = stats.bytes_cross_rack

    if disturb:
        victim = busiest_node(sc)
        inject_faults(sc, [ChaosEvent(t0 + 1.0, NODE_LOSS, victim)])
        sc.metrics.record_storm_event("pipeline_disturb")

    encode_all(sc)
    stripe_ids = {s.stripe_id for s in sc.stripes}
    finish_times = [
        r.finish_time
        for r in sc.setup.encoder.records
        if r.stripe_id in stripe_ids
    ]
    encode_window = (max(finish_times) - t0) if finish_times else 0.0
    encoded_data = code_k * block_size * len(finish_times)
    throughput = encoded_data / encode_window if encode_window else 0.0
    total_bytes = stats.bytes_total - bytes0
    core_bytes = stats.bytes_cross_rack - cross0

    if disturb:
        drain(sc, horizon=600.0)

    parity_verified = 0
    if strategy == "pipeline":
        plane = sc.setup.encoder.data_plane
        for stripe in sc.stripes:
            if stripe.state != StripeState.ENCODED:
                continue
            if not plane.verify_stripe(stripe):
                raise AssertionError(
                    f"stripe {stripe.stripe_id}: pipelined parity fails "
                    "the whole-stripe codec oracle"
                )
            parity_verified += 1

    pipeline_metrics = getattr(sc.setup.encoder, "metrics", None)
    report = finish_report(sc, contender, policy, seed)
    return {
        "contender": contender,
        "policy": policy,
        "strategy": strategy,
        "seed": seed,
        "disturbed": disturb,
        "stripes_encoded": report.stripes_encoded,
        "stripes_total": report.stripes_total,
        "encode_window": repr(encode_window),
        "encode_mb_per_s": repr(throughput / 1e6),
        "total_bytes": repr(float(total_bytes)),
        "core_bytes": repr(float(core_bytes)),
        "parity_verified": parity_verified,
        "pipeline_fallbacks": (
            pipeline_metrics.stripes_fallback if pipeline_metrics else 0
        ),
        "pipeline_replans": (
            pipeline_metrics.replans if pipeline_metrics else 0
        ),
        "time_at_margin_zero": repr(float(
            report.metrics.get("time_at_margin_zero", 0.0)
        )),
        "unrecoverable": sorted(report.unrecoverable),
        "clean": report.clean,
        "fingerprint": report.fingerprint,
    }


def head_to_head(
    contenders: Sequence[str] = CONTENDERS,
    seeds: Sequence[int] = (0,),
    workers: Optional[int] = None,
    **trial,
) -> List[Dict[str, object]]:
    """Run the contenders × seeds grid.

    ``trial`` overrides :func:`pipeline_trial`'s other keywords (cluster
    sizing, ``chunk_count``, ``disturb``) for every cell.  ``workers`` of
    ``None`` or ``0`` runs in-process, larger values fan trials out to
    worker processes; results come back in grid order either way, so any
    two runs are comparable element by element.
    """
    return run_grid(
        pipeline_trial,
        axes={"contender": contenders},
        seeds=seeds,
        fixed=trial,
        tag="pipeline.headtohead.{contender}",
        executor=SweepExecutor(workers=workers or 0),
    )


def head_to_head_rows(
    results: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Flatten head-to-head results into CLI table rows."""
    rows: List[Dict[str, object]] = []
    for result in results:
        rows.append({
            "contender": result["contender"],
            "policy": result["policy"],
            "strategy": result["strategy"],
            "seed": result["seed"],
            "clean": result["clean"],
            "encode_window": result["encode_window"],
            "encode_mb_per_s": result["encode_mb_per_s"],
            "core_bytes": result["core_bytes"],
            "replans": result["pipeline_replans"],
            "fallbacks": result["pipeline_fallbacks"],
            "time_at_margin_zero": result["time_at_margin_zero"],
            "fingerprint": str(result["fingerprint"])[:16],
        })
    return rows
