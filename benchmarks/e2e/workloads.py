"""The six workloads: seeded inputs, a timed pass, and output verification.

Each workload is three functions over a plain ``state`` dict:

* ``setup(seed, quick, workdir)`` builds the inputs from the seed (set-up,
  not timed as work);
* ``execute(state)`` is one timed pass — it calls public entry points of
  ``repro`` only, reads the clock around the phases whose rates are
  reported, and keeps every output;
* ``verify(state, outputs)`` runs after the clock has stopped.  It counts
  every operation the pass attempted and every one whose output is wrong,
  and collects the pass's simulated statistics (the ``sim_fingerprint``
  material).

Entry points that the traced pass rebinds at module level are reached as
module attributes (``stream.stream_encode``), never through a name imported
into this file, so the traced pass sees them.

Policies are pinned here, never taken from ``PolicyName.ALL``: a policy
added to the repo later must not change what these workloads run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List

from repro.cluster.topology import ClusterTopology
from repro.core.policy import ReplicationScheme
from repro.core.relocation import BlockMover, PlacementMonitor
from repro.core.stripe import StripeState
from repro.erasure import stream
from repro.erasure.codec import CodeParams, make_codec
from repro.experiments.config import LargeScaleConfig, TestbedConfig
from repro.experiments.largescale import run_largescale
from repro.experiments.runner import build_cluster, make_policy
from repro.hdfs.namenode import NameNode
from repro.journal import recovery as journal_recovery
from repro.journal.journal import MetadataJournal
from repro.parallel.executor import SweepExecutor
from repro.parallel.spec import TrialSpec
from repro.pipeline import gfstream
from repro.pipeline.headtohead import pipeline_trial
from repro.recovery.storm import run_storm
from repro.workloads.swim import SwimWorkload

State = Dict[str, Any]
Outputs = Dict[str, Any]

#: The (14, 10) code of the paper's large-scale experiments.
CODE = CodeParams(14, 10)


@dataclass
class Outcome:
    """What verification found in one pass."""

    attempted: int = 0
    failed: int = 0
    #: The first few failures, in words (the results file keeps them).
    failures: List[str] = field(default_factory=list)
    #: Simulated statistics and fingerprints; identical for a given seed
    #: whatever the host, the pass number or the tracing.
    sim: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        """Count ``count`` operations that all passed or all failed."""
        self.tally(count, 0 if ok else count, what)

    def tally(self, attempted: int, failed: int, what: str) -> None:
        """Count ``attempted`` operations of which ``failed`` went wrong."""
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(f"{what}: {failed} of {attempted} failed")

    def fingerprint(self) -> str:
        """SHA-256 over the simulated statistics."""
        blob = json.dumps(
            self.sim, sort_keys=True, separators=(",", ":"), default=repr
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Workload:
    """One named workload of the benchmark."""

    name: str
    why: str
    setup: Callable[[int, bool, str], State]
    execute: Callable[[State], Outputs]
    verify: Callable[[State, Outputs], Outcome]


def _attempt(errors: List[str], label: str, fn: Callable, *args, **kwargs):
    """Call ``fn``; a raise becomes a recorded failed operation."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the trial is the boundary; verify reports it
        errors.append(f"{label}: {type(exc).__name__}: {exc}")
        return None


# ----------------------------------------------------------------------
# transition_largescale — the paper's Fig. 13 centre point
# ----------------------------------------------------------------------
def _transition_setup(seed: int, quick: bool, workdir: str) -> State:
    config = LargeScaleConfig()
    if quick:
        config = config.scaled(stripes_per_process=2)
    return {"seed": seed, "config": config}


def transition_specs(state: State) -> List[TrialSpec]:
    """The two trials of a pass (also rerun at workers=2 by the harness)."""
    return [
        TrialSpec(
            fn=run_largescale,
            config={"policy_name": policy, "config": state["config"]},
            seed=state["seed"],
            tag=f"e2e.largescale.{policy}",
            cacheable=False,
        )
        for policy in ("rr", "ear")
    ]


def _transition_execute(state: State) -> Outputs:
    errors: List[str] = []
    results = _attempt(
        errors, "map_trials",
        SweepExecutor(workers=0).map_trials, transition_specs(state),
    )
    return {"results": results, "errors": errors}


def _transition_verify(state: State, outputs: Outputs) -> Outcome:
    outcome = Outcome()
    stripes = state["config"].total_stripes
    results = outputs["results"]
    outcome.check(results is not None, "trials raised", count=2)
    if results is None:
        outcome.tally(2 * stripes + 1, 2 * stripes + 1, outputs["errors"][0])
        return outcome
    rr, ear = results
    for result in results:
        outcome.tally(
            stripes, stripes - result.stripes_encoded,
            f"{result.policy}: stripes not encoded",
        )
        outcome.sim[result.policy] = asdict(result)
    outcome.check(
        ear.cross_rack_downloads == 0,
        f"ear made {ear.cross_rack_downloads} cross-rack encode downloads",
    )
    outcome.sim["encode_ratio"] = (
        ear.encode_throughput_mb_s / rr.encode_throughput_mb_s
    )
    # A quick-scale window can end before any write arrives.
    if rr.write_throughput_mb_s and ear.write_throughput_mb_s:
        outcome.sim["write_ratio"] = (
            ear.write_throughput_mb_s / rr.write_throughput_mb_s
        )
    return outcome


# ----------------------------------------------------------------------
# placement_metadata — placement core and NameNode metadata, no simulator
# ----------------------------------------------------------------------
def _placement_setup(seed: int, quick: bool, workdir: str) -> State:
    return {"seed": seed, "stripes": 40 if quick else 600}


def _placement_run_policy(policy_name: str, seed: int, stripes: int) -> Outputs:
    topology = ClusterTopology(nodes_per_rack=20, num_racks=20)
    rng = random.Random(seed)
    policy = make_policy(
        policy_name, topology, CODE, ReplicationScheme(3, 2), rng
    )
    namenode = NameNode(topology, policy)
    planner = namenode.make_planner(CODE, rng=rng)
    store = namenode.pre_encoding_store
    block_store = namenode.block_store
    writers = list(topology.node_ids())

    place_s: List[float] = []
    decisions = []
    sealed = 0
    while sealed < stripes:
        writer = rng.choice(writers)
        start = perf_counter()
        __, decision = namenode.allocate_block(writer_node=writer)
        place_s.append(perf_counter() - start)
        decisions.append(decision)
        if store.stripe(decision.stripe_id).state == StripeState.SEALED:
            sealed += 1

    plans = []
    encoded = store.sealed_stripes()[:stripes]
    for stripe in encoded:
        plan = planner.plan(stripe)
        namenode.record_encoding(stripe, plan)
        plans.append(plan)

    monitor = PlacementMonitor(topology, CODE)
    mover = BlockMover(topology, CODE, rng=random.Random(seed + 30_003))
    relocations = []
    for stripe in encoded:
        if monitor.is_violating(block_store, stripe):
            relocations.append(mover.repair(block_store, stripe))
    return {
        "topology": topology,
        "block_store": block_store,
        "monitor": monitor,
        "stripes": encoded,
        "decisions": decisions,
        "plans": plans,
        "relocations": relocations,
        "place_s": place_s,
    }


def _placement_execute(state: State) -> Outputs:
    errors: List[str] = []
    runs = {
        policy: _attempt(
            errors, policy, _placement_run_policy,
            policy, state["seed"], state["stripes"],
        )
        for policy in ("rr", "ear")
    }
    ear = runs["ear"]
    return {
        "errors": errors,
        "runs": runs,
        "timing": {"place_ear_s": ear["place_s"] if ear else []},
    }


def _placement_verify(state: State, outputs: Outputs) -> Outcome:
    outcome = Outcome()
    for policy, run in outputs["runs"].items():
        outcome.check(run is not None, f"{policy} raised")
        if run is None:
            outcome.failures.extend(outputs["errors"])
            continue
        topology = run["topology"]
        bad_layouts = sum(
            1 for d in run["decisions"]
            if len(set(d.node_ids)) != 3
            or len({topology.rack_of(n) for n in d.node_ids}) != 2
        )
        outcome.tally(
            len(run["decisions"]), bad_layouts,
            f"{policy}: layouts not 3 nodes over 2 racks",
        )
        stripes = run["stripes"]
        outcome.tally(
            state["stripes"],
            state["stripes"]
            - sum(1 for s in stripes if s.state == StripeState.ENCODED),
            f"{policy}: stripes not encoded",
        )
        still_violating = sum(
            1 for s in stripes
            if run["monitor"].is_violating(run["block_store"], s)
        )
        outcome.tally(
            len(stripes), still_violating,
            f"{policy}: stripes violating rack fault tolerance at the end",
        )
        store = run["block_store"]
        layout = hashlib.sha256(repr([
            (block.block_id, sorted(store.replica_nodes(block.block_id)))
            for block in store.blocks()
        ]).encode("utf-8")).hexdigest()
        outcome.sim[policy] = {
            "stripes": len(stripes),
            "blocks_placed": len(run["decisions"]),
            "redraw_attempts": sum(d.attempts for d in run["decisions"]),
            "violating_stripes": len(run["relocations"]),
            "relocation_moves": sum(len(p.moves) for p in run["relocations"]),
            "cross_rack_moves": sum(
                p.cross_rack_moves for p in run["relocations"]
            ),
            "cross_rack_downloads": sum(
                p.cross_rack_downloads for p in run["plans"]
            ),
            "cross_rack_uploads": sum(
                p.cross_rack_uploads for p in run["plans"]
            ),
            "final_layout": layout,
        }
    ear = outcome.sim.get("ear")
    if ear is not None:
        outcome.check(
            ear["cross_rack_downloads"] == 0,
            f"ear planned {ear['cross_rack_downloads']} cross-rack downloads",
        )
        outcome.check(
            ear["violating_stripes"] == 0,
            f"ear left {ear['violating_stripes']} stripes to relocate",
        )
    return outcome


# ----------------------------------------------------------------------
# mapreduce_reads — MapReduce jobs reading replicated data (Section V-A)
# ----------------------------------------------------------------------
#: Seed of the job mix.  The mix is a trace, as SWIM's is in the paper:
#: every run replays the same 3000 jobs and ``--seed`` draws the placement
#: and scheduling randomness only.  Job sizes are heavy-tailed, so mixes of
#: two seeds differ by a tenth in host work — more than any change this
#: benchmark is meant to resolve.
SWIM_TRACE_SEED = 0


def _mapreduce_setup(seed: int, quick: bool, workdir: str) -> State:
    config = TestbedConfig()
    trace = SwimWorkload(
        random.Random(SWIM_TRACE_SEED), block_size=config.block_size
    )
    return {
        "seed": seed,
        "config": config,
        "shapes": trace.generate_shapes(100 if quick else 3000),
    }


def _mapreduce_run_policy(policy: str, state: State):
    """``run_mapreduce_workload`` with the job mix handed in: the Section
    V-A testbed (12 single-node racks, disks modelled), jobs written first,
    then submitted at their arrival times."""
    config = state["config"]
    topology = ClusterTopology.testbed(
        num_racks=config.num_racks, bandwidth=config.bandwidth
    )
    setup = build_cluster(
        policy, topology, CodeParams(10, 8), config.scheme(), state["seed"],
        disk=config.disk, block_size=config.block_size,
        slots_per_node=config.slots_per_node,
    )
    swim = SwimWorkload(
        random.Random(state["seed"]), block_size=config.block_size
    )
    records: List[Any] = []

    def materialise_then_run():
        jobs = yield from swim.materialise(state["shapes"], setup.client)
        records.extend((yield from swim.run(
            setup.sim, jobs, setup.job_tracker, setup.client, setup.network
        )))

    setup.sim.process(materialise_then_run())
    setup.sim.run()
    return records


def _mapreduce_execute(state: State) -> Outputs:
    errors: List[str] = []
    return {
        "errors": errors,
        "records": {
            policy: _attempt(errors, policy, _mapreduce_run_policy, policy, state)
            for policy in ("rr", "ear")
        },
    }


def _mapreduce_verify(state: State, outputs: Outputs) -> Outcome:
    outcome = Outcome()
    jobs = len(state["shapes"])
    for policy, records in outputs["records"].items():
        outcome.check(records is not None, f"{policy} raised")
        if records is None:
            outcome.tally(jobs, jobs, outputs["errors"][0])
            continue
        completed = {
            r.job_id for r in records if r.finish_time >= r.submit_time
        }
        outcome.tally(
            jobs, jobs - len(completed), f"{policy}: jobs not completed"
        )
        outcome.sim[policy] = {
            "makespan_s": max(r.finish_time for r in records),
            "mean_runtime_s": sum(r.runtime for r in records) / len(records),
            "jobs": hashlib.sha256(repr([
                (r.job_id, r.submit_time, r.finish_time) for r in records
            ]).encode("utf-8")).hexdigest(),
        }
    return outcome


# ----------------------------------------------------------------------
# byte_plane — GF(2^8) kernels on real bytes, no simulator, no placement
# ----------------------------------------------------------------------
#: Data shards erased before the decode, and the one shard repaired.
DECODE_ERASED = (0, 1, 2, 3)
REPAIR_TARGET = 2


def _byte_plane_setup(seed: int, quick: bool, workdir: str) -> State:
    size = (2 if quick else 32) << 20
    source = random.Random(seed).randbytes(size)
    block_len = size // CODE.k
    view = memoryview(source)
    return {
        "source": source,
        "blocks": [
            view[i * block_len:(i + 1) * block_len] for i in range(CODE.k)
        ],
        "codec": make_codec(CODE.n, CODE.k),
        #: Set by a test to prove that a wrong byte is a failed operation.
        "corrupt_decode": False,
    }


def _byte_plane_execute(state: State) -> Outputs:
    source = state["source"]
    t0 = perf_counter()
    encoded = stream.stream_encode(source, n=CODE.n, k=CODE.k)
    t1 = perf_counter()
    decoded = stream.stream_decode(
        encoded.available(exclude=DECODE_ERASED), encoded.meta
    )
    t2 = perf_counter()
    repaired = stream.stream_repair(
        REPAIR_TARGET, encoded.available(exclude=[REPAIR_TARGET]),
        encoded.meta,
    )
    t3 = perf_counter()
    parity = gfstream.pipelined_parity(state["blocks"], state["codec"])
    t4 = perf_counter()
    if state["corrupt_decode"]:
        flipped = bytearray(decoded)
        flipped[len(flipped) // 2] ^= 0x01
        decoded = bytes(flipped)
    return {
        "encoded": encoded,
        "decoded": decoded,
        "repaired": repaired,
        "parity": parity,
        "timing": {
            "source_mb": len(source) / 1e6,
            "encode_s": t1 - t0,
            "decode_s": t2 - t1,
            "repair_s": t3 - t2,
            "fold_s": t4 - t3,
        },
    }


def _byte_plane_verify(state: State, outputs: Outputs) -> Outcome:
    outcome = Outcome()
    encoded = outputs["encoded"]
    if "expected_parity" not in state:
        # The whole-stripe codec is the oracle for the fold; computed once,
        # outside both set-up and the timed pass.
        state["expected_parity"] = state["codec"].encode(
            [bytes(block) for block in state["blocks"]]
        )
    outcome.check(
        encoded.meta.length == len(state["source"])
        and encoded.payload() == state["source"],
        "stream_encode: data shards are not the source, striped",
    )
    # Four data shards are erased, so the decode can only equal the source
    # if the parity shards the encode produced are right as well.
    outcome.check(
        outputs["decoded"] == state["source"],
        "stream_decode: output differs from the source",
    )
    outcome.check(
        tuple(outputs["repaired"]) == encoded.shards[REPAIR_TARGET],
        "stream_repair: rebuilt shard differs from the original",
    )
    outcome.check(
        list(outputs["parity"]) == list(state["expected_parity"]),
        "pipelined_parity: fold differs from codec.encode",
    )
    outcome.sim = {
        "source_sha256": hashlib.sha256(state["source"]).hexdigest(),
        "parity_sha256": hashlib.sha256(
            b"".join(outputs["parity"])
        ).hexdigest(),
        "stripes": encoded.meta.num_stripes,
    }
    return outcome


# ----------------------------------------------------------------------
# pipeline_archival — RR vs EAR vs pipelined encoding, one node killed
# ----------------------------------------------------------------------
def _pipeline_setup(seed: int, quick: bool, workdir: str) -> State:
    return {"seed": seed, "stripes": 8 if quick else 100}


def _pipeline_execute(state: State) -> Outputs:
    errors: List[str] = []
    return {
        "errors": errors,
        "trials": {
            contender: _attempt(
                errors, contender, pipeline_trial,
                seed=state["seed"], contender=contender,
                code_n=CODE.n, code_k=CODE.k,
                num_racks=20, nodes_per_rack=10,
                num_stripes=state["stripes"], block_size=1 << 20,
                disturb=True,
            )
            for contender in ("rr", "ear", "pipeline")
        },
    }


def _pipeline_verify(state: State, outputs: Outputs) -> Outcome:
    outcome = Outcome()
    stripes = state["stripes"]
    for contender, trial in outputs["trials"].items():
        outcome.check(trial is not None, f"{contender} raised")
        if trial is None:
            outcome.tally(stripes, stripes, outputs["errors"][0])
            continue
        outcome.tally(
            stripes, stripes - trial["stripes_encoded"],
            f"{contender}: stripes not encoded",
        )
        if trial["strategy"] == "pipeline":
            outcome.tally(
                stripes, stripes - trial["parity_verified"],
                "pipeline: stripes failing verify_stripe",
            )
        lost = len(trial["unrecoverable"])
        outcome.tally(
            max(lost, 1), lost, f"{contender}: unrecoverable blocks"
        )
        outcome.sim[contender] = trial
    return outcome


# ----------------------------------------------------------------------
# recovery_storm — correlated failures with the journal on, then replay
# ----------------------------------------------------------------------
#: (scenario, policy) of the three storms of a pass.
STORMS = (("rack_loss", "ear"), ("scrub_storm", "ear"), ("rack_loss", "rr"))
#: The three journals are replayed this often per pass and ``recover_s`` is
#: the median round: a single replay varies by a tenth with where the
#: garbage collector's full passes happen to fall.
RECOVER_ROUNDS = 3


def _storm_setup(seed: int, quick: bool, workdir: str) -> State:
    return {
        "seed": seed,
        "stripes": 16 if quick else 300,
        "journal_root": os.path.join(workdir, "journals"),
    }


def _storm_topology() -> ClusterTopology:
    # ``build_storm_cluster``'s defaults at 20 x 10; topology is
    # configuration, not journaled state, so replay is handed the same one.
    return ClusterTopology(
        nodes_per_rack=10, num_racks=20,
        intra_rack_bandwidth=1e6, cross_rack_bandwidth=1e6 / 4.0,
    )


def _storm_execute(state: State) -> Outputs:
    errors: List[str] = []
    root = state["journal_root"]
    shutil.rmtree(root, ignore_errors=True)
    storms = []
    for scenario, policy in STORMS:
        directory = os.path.join(root, f"{scenario}-{policy}")
        os.makedirs(directory)
        journal = MetadataJournal(directory)
        try:
            report = _attempt(
                errors, f"{scenario}/{policy}", run_storm,
                scenario, seed=state["seed"], policy=policy, journal=journal,
                num_racks=20, nodes_per_rack=10, code=CODE, ear_c=1,
                num_stripes=state["stripes"],
            )
            live = journal.current_fingerprint() if report else None
        finally:
            journal.close()
        storms.append({
            "name": f"{scenario}/{policy}",
            "directory": directory,
            "report": report,
            "live_fingerprint": live,
        })
    topology = _storm_topology()
    rounds_s = []
    for __ in range(RECOVER_ROUNDS):
        start = perf_counter()
        for storm in storms:
            storm.setdefault("recovered", []).append(_attempt(
                errors, f"recover {storm['name']}", journal_recovery.recover,
                storm["directory"], topology, k=CODE.k,
            ))
        rounds_s.append(perf_counter() - start)
    return {
        "errors": errors,
        "storms": storms,
        "timing": {"recover_s": statistics.median(rounds_s)},
    }


def _storm_verify(state: State, outputs: Outputs) -> Outcome:
    outcome = Outcome()
    stripes = state["stripes"]
    for storm in outputs["storms"]:
        name, report = storm["name"], storm["report"]
        outcome.check(report is not None, f"{name} raised")
        if report is None:
            outcome.tally(stripes + 1, stripes + 1, outputs["errors"][0])
            continue
        outcome.tally(
            stripes, stripes - report.stripes_encoded,
            f"{name}: stripes not encoded",
        )
        repairs = sum(report.repair_outcomes.values())
        outcome.tally(
            max(repairs, 1), len(report.unrecoverable),
            f"{name}: repairs ending unrecoverable",
        )
        replays = [
            recovered is not None
            and not recovered.stats.errors
            and recovered.fingerprint() == storm["live_fingerprint"]
            for recovered in storm["recovered"]
        ]
        outcome.tally(
            len(replays), replays.count(False),
            f"{name}: replayed journal does not reproduce the live state",
        )
        trial = report.as_trial_result()
        if all(replays):
            trial["replayed_ops"] = storm["recovered"][0].stats.replayed_ops
        outcome.sim[name] = trial
    shutil.rmtree(state["journal_root"], ignore_errors=True)
    return outcome


# ----------------------------------------------------------------------
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "transition_largescale",
            "The paper's central experiment: RR then EAR encode 1000 stripes "
            "each on 20x20 nodes under write and background traffic; "
            "placement, sim kernel, netsim and hdfs all carry load.",
            _transition_setup, _transition_execute, _transition_verify,
        ),
        Workload(
            "placement_metadata",
            "Placement, encode planning and relocation for 600 stripes per "
            "policy with no simulator: core does nearly all the work, so a "
            "flow-graph change shows fully and a sim change not at all.",
            _placement_setup, _placement_execute, _placement_verify,
        ),
        Workload(
            "mapreduce_reads",
            "A fixed trace of 3000 MapReduce jobs reading replicated data on "
            "the 12-rack testbed with disks: sim kernel and netsim dominate, "
            "core is small; reads fan in where encodes fan out.",
            _mapreduce_setup, _mapreduce_execute, _mapreduce_verify,
        ),
        Workload(
            "byte_plane",
            "Encode, 4-erasure decode, one-shard repair and pipelined fold "
            "of 32 MiB with RS(14,10): GF(2^8) kernels only, so a gain in "
            "one direction that costs another shows.",
            _byte_plane_setup, _byte_plane_execute, _byte_plane_verify,
        ),
        Workload(
            "pipeline_archival",
            "RR, EAR and pipelined encoding of 100 stripes of real bytes "
            "with one node killed mid-wave: the only workload running "
            "pipeline, erasure, sim and faults together.",
            _pipeline_setup, _pipeline_execute, _pipeline_verify,
        ),
        Workload(
            "recovery_storm",
            "Rack loss and a scrub storm over 300 stripes with the journal "
            "flushing each record, then crash replay: netsim and hdfs in "
            "the repair direction plus the write-ahead log.",
            _storm_setup, _storm_execute, _storm_verify,
        ),
    )
}

__all__ = ["CODE", "Outcome", "WORKLOADS", "Workload", "transition_specs"]
