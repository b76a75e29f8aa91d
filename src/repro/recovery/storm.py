"""The fault-scenario harness: seeded failure drills over encoded stripes.

A *recovery storm* is what a cluster lives through after correlated
damage: the repair queue floods, reconstruction traffic fights client
load for rack uplinks, and reads land on blocks whose only copy is gone.
This module is the one place a cluster is wired to the recovery stack
(:func:`build_storm_cluster`), drained (:func:`drain`) and reported
(:func:`finish_report`); on top of that it packages five seeded,
fingerprint-deterministic scenarios, each runnable under any placement
policy ("rr", "ear", "recovery") so their recovery behaviour can be
compared head-to-head:

* :func:`single_node_loss` — one node dies under a concurrent MapReduce
  read load; clients ride the degraded-read path while the prioritized
  queue rebuilds.
* :func:`rack_loss` — the busiest rack goes dark permanently; every
  stripe decodes at once and the placement policy decides how many
  survivor fetches contend for the same uplinks.
* :func:`scrub_storm` — latent corruption across many stripes surfaces
  in one scrub pass, flooding the queue with decode work.
* :func:`rolling_failures` — nodes keep dying *during* an in-progress
  encoding wave; encoding, re-replication and decode repairs interleave.
* :func:`chaos` — the transient-fault menu (node flaps, a rack outage,
  NIC degradations, bit-rot) plus one permanent node failure, all
  against a live encoding wave (also ``repro chaos`` on the CLI).

Node and rack faults, transient or permanent, enter through one
:class:`~repro.faults.chaos.ChaosInjector` schedule
(:func:`inject_faults`).

All randomness in a scenario derives from its single ``seed``; the
returned :class:`StormReport` carries a sha256 fingerprint over final
placements, repair outcomes, read results and the fault metrics, so two
runs with the same arguments must match bit-for-bit — including across
a mid-storm crash/recovery cycle when a journal is attached.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.topology import ClusterTopology, NodeId, RackId
from repro.core.policy import ReplicationScheme
from repro.core.relocation import BlockMover
from repro.core.stripe import StripeState
from repro.erasure.codec import CodeParams
from repro.experiments.runner import build_cluster, populate_until_sealed
from repro.faults.chaos import (
    NODE_FLAP,
    NODE_LOSS,
    RACK_LOSS,
    RACK_OUTAGE,
    ChaosEvent,
    ChaosInjector,
    ChaosSchedule,
)
from repro.faults.repair import RepairQueue
from repro.faults.retry import DEGRADED_READ_RETRY, RetryPolicy
from repro.faults.scrubber import Scrubber
from repro.hdfs.mapreduce import MapReduceJob, MapTask
from repro.recovery.degraded import DegradedReadPath
from repro.sim.metrics import FaultMetrics

#: Pipeline-grade retry policy used by every storm's repair machinery.
STORM_RETRY = RetryPolicy(
    max_attempts=8, base_delay=1.0, multiplier=2.0,
    max_delay=30.0, jitter=0.5,
)


# ----------------------------------------------------------------------
# Cluster assembly
# ----------------------------------------------------------------------
@dataclass
class StormCluster:
    """A fully wired cluster plus the recovery machinery for one storm."""

    setup: object
    repair_queue: RepairQueue
    scrubber: Scrubber
    read_path: DegradedReadPath
    stripes: list
    blocks_total: int
    reader_rng: random.Random
    encode_errors: List[str] = field(default_factory=list)

    @property
    def sim(self):
        return self.setup.sim

    @property
    def store(self):
        return self.setup.namenode.block_store

    @property
    def metrics(self) -> FaultMetrics:
        """The one fault collector every component of the storm feeds."""
        return self.setup.metrics


def build_storm_cluster(
    policy: str = "ear",
    seed: int = 0,
    num_racks: int = 8,
    nodes_per_rack: int = 4,
    num_stripes: int = 8,
    code: Optional[CodeParams] = None,
    block_size: int = 256_000,
    bandwidth: float = 1e6,
    oversubscription: float = 4.0,
    ear_c: int = 2,
    scrub_interval: float = 10.0,
    repair_concurrency: int = 4,
    journal=None,
    strategy: str = "download",
    pipeline_chunks: int = 4,
) -> StormCluster:
    """Assemble a cluster with the full recovery stack, from one seed.

    The ``ear_c`` cap feeds EAR's concentration (and the recovery-aware
    policy's *nominal* cap — its placement always spreads one block per
    rack).  With a ``journal`` every metadata mutation — including the
    repair queue's relocation requests — is write-ahead logged, so the
    storm survives a crash/recovery cycle.  ``repair_concurrency`` models
    the repair fleet width; at the default 4 a storm's reconstructions
    overlap, which is what exposes placement-induced uplink contention.
    ``oversubscription`` is the intra-to-cross-rack bandwidth ratio (4:1
    by default, the usual datacenter core oversubscription) — it is what
    makes shared rack uplinks, not destination disks, the storm's
    bottleneck.  ``strategy`` picks the transition strategy
    (``"download"`` or ``"pipeline"``; see
    :class:`~repro.experiments.config.StrategyName`).
    """
    code = CodeParams(6, 4) if code is None else code
    master = random.Random(seed)
    repair_seed = master.randrange(2**32)
    mover_seed = master.randrange(2**32)
    # The injector's former rng draw: kept so reader_seed — and with it
    # every storm fingerprint — stays where it was.
    master.randrange(2**32)
    reader_seed = master.randrange(2**32)

    topology = ClusterTopology(
        nodes_per_rack=nodes_per_rack,
        num_racks=num_racks,
        intra_rack_bandwidth=bandwidth,
        cross_rack_bandwidth=bandwidth / oversubscription,
    )
    setup = build_cluster(
        policy, topology, code, ReplicationScheme(3, 2), seed,
        block_size=block_size, ear_c=ear_c,
        retry=STORM_RETRY, journal=journal,
        strategy=strategy, pipeline_chunks=pipeline_chunks,
    )
    metrics = setup.metrics
    populate_until_sealed(setup, num_stripes)
    stripes = setup.namenode.sealed_stripes()[:num_stripes]
    blocks_total = sum(1 for __ in setup.namenode.block_store.blocks())

    mover = BlockMover(topology, code, rng=random.Random(mover_seed))
    repair_queue = RepairQueue(
        setup.sim, setup.network, setup.namenode, setup.raidnode,
        rng=random.Random(repair_seed), retry=STORM_RETRY,
        metrics=metrics, mover=mover, concurrency=repair_concurrency,
    )
    scrubber = Scrubber(
        setup.sim, setup.network, setup.namenode, repair_queue,
        interval=scrub_interval, metrics=metrics,
    )
    read_path = DegradedReadPath(
        setup.sim, setup.network, setup.namenode, setup.raidnode,
        repair_queue=repair_queue, retry=DEGRADED_READ_RETRY,
        rng=random.Random(reader_seed), metrics=metrics,
    )
    return StormCluster(
        setup=setup,
        repair_queue=repair_queue,
        scrubber=scrubber,
        read_path=read_path,
        stripes=stripes,
        blocks_total=blocks_total,
        reader_rng=random.Random(reader_seed + 1),
    )


def encode_all(sc: StormCluster, num_map_tasks: int = 6,
               horizon: float = 50_000.0) -> None:
    """Run the encoding wave over every sealed stripe, to completion."""
    sc.sim.process(_drive_encoding(sc, num_map_tasks))
    sc.sim.run(until=sc.sim.now + horizon)


def _drive_encoding(sc: StormCluster, num_map_tasks: int):
    try:
        yield from sc.setup.raidnode.run_encoding(
            sc.setup.job_tracker, sc.stripes, num_map_tasks=num_map_tasks
        )
    except Exception as exc:  # noqa: BLE001 — reported, not fatal
        sc.encode_errors.append(repr(exc))


# ----------------------------------------------------------------------
# Storm building blocks
# ----------------------------------------------------------------------
def inject_faults(sc: StormCluster, events: Iterable[ChaosEvent],
                  rng: Optional[random.Random] = None) -> None:
    """Play ``events`` against the storm cluster, every timer armed now."""
    ChaosInjector(
        sc.sim, sc.setup.network, ChaosSchedule(list(events)),
        namenode=sc.setup.namenode, rng=rng, metrics=sc.metrics,
        repair_queue=sc.repair_queue,
    ).start()


def busiest_node(sc: StormCluster) -> NodeId:
    """The node holding the most replicas (deterministic tie-break)."""
    counts = sc.store.replica_count_per_node()
    return min(sorted(counts), key=lambda n: (-counts[n], n))


def _busiest_rack(sc: StormCluster) -> RackId:
    """The rack holding the most replicas (deterministic tie-break)."""
    counts = sc.store.replica_count_per_rack()
    return min(sorted(counts), key=lambda r: (-counts[r], r))


def _encoded_blocks_on(sc: StormCluster, nodes: Sequence[NodeId]) -> List[int]:
    """Encoded-stripe blocks whose every replica lives on ``nodes``."""
    doomed = set(nodes)
    encoded_members = {
        member
        for stripe in sc.stripes
        if stripe.state == StripeState.ENCODED
        for member in stripe.all_block_ids()
    }
    lost = [
        block.block_id
        for block in sc.store.blocks()
        if block.block_id in encoded_members
        and sc.store.replica_nodes(block.block_id)
        and set(sc.store.replica_nodes(block.block_id)) <= doomed
    ]
    return sorted(lost)


def _schedule_reads(
    sc: StormCluster,
    when: float,
    block_ids: Sequence[int],
    avoid_nodes: Sequence[NodeId] = (),
    stagger: float = 1.0,
) -> None:
    """Issue one client read per block, staggered, from seeded readers."""
    forbidden = set(avoid_nodes)
    candidates = [
        n for n in sorted(sc.setup.topology.node_ids()) if n not in forbidden
    ]
    for index, block_id in enumerate(block_ids):
        reader = sc.reader_rng.choice(candidates)
        sc.sim.process(
            _read_later(sc, when + index * stagger, block_id, reader)
        )


def _read_later(sc: StormCluster, when: float, block_id: int,
                reader: NodeId):
    delay = when - sc.sim.now
    if delay > 0:
        yield sc.sim.timeout(delay)
    yield from sc.read_path.read_block(block_id, reader)


def _build_read_load(sc: StormCluster, num_tasks: int,
                     rng: random.Random) -> MapReduceJob:
    """A MapReduce job whose maps each stream one random block."""
    data_blocks = sorted(
        b.block_id for b in sc.store.blocks() if not b.is_parity()
    )
    tasks = []
    for task_id in range(num_tasks):
        block_id = rng.choice(data_blocks)
        tasks.append(MapTask(task_id=task_id,
                             work=_load_task_body(sc, block_id)))
    return MapReduceJob(job_id=10_000, tasks=tasks)


def _load_task_body(sc: StormCluster, block_id: int):
    def body(node: NodeId):
        yield from sc.read_path.read_block(block_id, node)
    return body


def drain(sc: StormCluster, horizon: float, rounds: int = 8,
          round_time: float = 300.0) -> None:
    """Run past ``horizon`` then keep scrubbing until no damage is left.

    Corruption injected late, or on a node that was down during earlier
    scans, surfaces in these final passes.
    """
    sc.sim.run(until=sc.sim.now + horizon)
    for __ in range(rounds):
        caught = sc.scrubber.scan_once()
        if not caught and sc.repair_queue.pending_count == 0:
            break
        sc.sim.run(until=sc.sim.now + round_time)


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass
class StormReport:
    """Everything one storm run measured (deterministic per seed)."""

    scenario: str
    policy: str
    seed: int
    sim_time: float
    stripes_total: int
    stripes_encoded: int
    blocks_total: int
    repair_outcomes: Dict[str, int]
    unrecoverable: Tuple[int, ...]
    read_modes: Dict[str, int]
    relocation_requests: int
    encode_errors: Tuple[str, ...]
    metrics: Dict[str, float] = field(default_factory=dict)
    fingerprint: str = ""

    @property
    def clean(self) -> bool:
        """True when the storm lost nothing and every stripe encoded."""
        return (
            not self.unrecoverable
            and not self.encode_errors
            and self.stripes_encoded == self.stripes_total
        )

    def summary(self) -> Dict[str, object]:
        """Flat printable snapshot (CLI table source)."""
        out: Dict[str, object] = {
            "scenario": self.scenario,
            "policy": self.policy,
            "seed": self.seed,
            "sim_time": round(self.sim_time, 3),
            "stripes_encoded": f"{self.stripes_encoded}/{self.stripes_total}",
            "blocks_total": self.blocks_total,
            "unrecoverable": len(self.unrecoverable),
            "relocation_requests": self.relocation_requests,
            "clean": self.clean,
            "fingerprint": self.fingerprint[:16],
        }
        for mode, count in sorted(self.read_modes.items()):
            out[f"reads_{mode}"] = count
        for key, value in sorted(self.repair_outcomes.items()):
            out[f"repairs_{key}"] = value
        for key, value in sorted(self.metrics.items()):
            out[key] = round(value, 4) if isinstance(value, float) else value
        return out

    def as_trial_result(self) -> Dict[str, object]:
        """JSON-round-trippable form for sweep-executor trials."""
        return {
            "scenario": self.scenario,
            "policy": self.policy,
            "seed": self.seed,
            "sim_time": repr(self.sim_time),
            "clean": self.clean,
            "stripes_encoded": self.stripes_encoded,
            "unrecoverable": list(self.unrecoverable),
            "read_modes": dict(sorted(self.read_modes.items())),
            "repair_outcomes": dict(sorted(self.repair_outcomes.items())),
            "recovery": _payload_sections(self.metrics)["recovery"],
            "fingerprint": self.fingerprint,
        }


#: Summary keys the fingerprint hashes in its "resilience" section; its
#: "recovery" section holds every other key, and "repairs" too.  The
#: split predates the one collector and keeps every fingerprint stable.
_RESILIENCE_KEYS = frozenset({
    "aborts", "corruption_detected", "corruption_injected", "data_loss",
    "mttr", "outages", "relocation_failures", "repairs", "retries",
    "stragglers", "unavailability_total", "unavailability_windows",
})


def _payload_sections(
    metrics: Dict[str, float],
) -> Dict[str, Dict[str, str]]:
    """The "resilience" and "recovery" payload sections, values as reprs."""
    sections: Dict[str, Dict[str, str]] = {"resilience": {}, "recovery": {}}
    for key, value in sorted(metrics.items()):
        if key in _RESILIENCE_KEYS:
            sections["resilience"][key] = repr(value)
        if key not in _RESILIENCE_KEYS or key == "repairs":
            sections["recovery"][key] = repr(value)
    return sections


def storm_fingerprint(sc: StormCluster) -> str:
    """sha256 over final placements, repairs, reads, and fault metrics."""
    store = sc.store
    payload = {
        "now": repr(sc.sim.now),
        "placements": {
            str(block.block_id): sorted(store.replica_nodes(block.block_id))
            for block in store.blocks()
        },
        "corrupted": [list(pair) for pair in store.corrupted_replicas()],
        "outcomes": dict(sorted(sc.repair_queue.outcomes.items())),
        "encoded": sorted(r.stripe_id for r in sc.setup.encoder.records),
        **_payload_sections(sc.metrics.summary(now=sc.sim.now)),
        "reads": [
            [r.block_id, r.reader_node, r.mode, repr(r.latency)]
            for r in sc.read_path.results
        ],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def finish_report(sc: StormCluster, scenario: str, policy: str,
                  seed: int) -> StormReport:
    """Collect the report once a storm has fully drained."""
    read_modes: Dict[str, int] = {}
    for result in sc.read_path.results:
        read_modes[result.mode] = read_modes.get(result.mode, 0) + 1
    stripe_ids = {s.stripe_id for s in sc.stripes}
    report = StormReport(
        scenario=scenario,
        policy=policy,
        seed=seed,
        sim_time=sc.sim.now,
        stripes_total=len(sc.stripes),
        stripes_encoded=sum(
            1 for r in sc.setup.encoder.records if r.stripe_id in stripe_ids
        ),
        blocks_total=sc.blocks_total,
        repair_outcomes=dict(sc.repair_queue.outcomes),
        unrecoverable=tuple(sc.repair_queue.unrecoverable),
        read_modes=read_modes,
        relocation_requests=len(sc.repair_queue.relocation_requests),
        encode_errors=tuple(sc.encode_errors),
        metrics=sc.metrics.summary(now=sc.sim.now),
    )
    report.fingerprint = storm_fingerprint(sc)
    return report


# ----------------------------------------------------------------------
# The scenario pack
# ----------------------------------------------------------------------
def single_node_loss(
    seed: int = 0,
    policy: str = "ear",
    num_reads: int = 4,
    num_load_tasks: int = 6,
    **build_kwargs,
) -> StormReport:
    """One node dies under MapReduce load; clients read through the hole.

    The busiest node (most replicas) fails permanently at t+5 while a
    read-heavy MapReduce job streams blocks.  Reads against blocks whose
    only copy died are served by inline decode; the prioritized queue
    rebuilds everything in the background.
    """
    sc = build_storm_cluster(policy=policy, seed=seed, **build_kwargs)
    encode_all(sc)
    victim = busiest_node(sc)
    lost = _encoded_blocks_on(sc, [victim])
    t0 = sc.sim.now + 5.0

    load_rng = random.Random(seed + 7)
    job = _build_read_load(sc, num_load_tasks, load_rng)
    sc.setup.job_tracker.submit(job)
    inject_faults(sc, [ChaosEvent(t0, NODE_LOSS, victim)])
    _schedule_reads(sc, t0 + 1.0, lost[:num_reads], avoid_nodes=[victim])
    sc.metrics.record_storm_event("node_loss")

    drain(sc, horizon=600.0)
    return finish_report(sc, "single_node_loss", policy, seed)


def rack_loss(
    seed: int = 0,
    policy: str = "ear",
    num_reads: int = 4,
    **build_kwargs,
) -> StormReport:
    """Correlated whole-rack loss: every stripe decodes at once.

    The busiest rack goes dark permanently at t+5.  The placement decides
    how many blocks each stripe loses: up to c under EAR's concentration
    (c=2), exactly one under the recovery-aware spread.
    """
    sc = build_storm_cluster(policy=policy, seed=seed, **build_kwargs)
    encode_all(sc)
    victim_rack = _busiest_rack(sc)
    doomed = sorted(sc.setup.topology.nodes_in_rack(victim_rack))
    lost = _encoded_blocks_on(sc, doomed)
    t0 = sc.sim.now + 5.0

    inject_faults(sc, [ChaosEvent(t0, RACK_LOSS, victim_rack)])
    _schedule_reads(sc, t0 + 1.0, lost[:num_reads], avoid_nodes=doomed)
    sc.metrics.record_storm_event("rack_loss")

    drain(sc, horizon=1200.0)
    return finish_report(sc, "rack_loss", policy, seed)


def scrub_storm(
    seed: int = 0,
    policy: str = "ear",
    corrupt_per_stripe: int = 1,
    num_reads: int = 3,
    **build_kwargs,
) -> StormReport:
    """Latent bit-rot across many stripes surfaces in one scrub pass.

    One retained replica per stripe rots silently after encoding; the
    next scrub pass detects them all at once and floods the repair queue
    with decode work.  A few client reads land on still-undetected
    corrupted blocks and decode around them inline.
    """
    sc = build_storm_cluster(policy=policy, seed=seed, **build_kwargs)
    encode_all(sc)

    rot_rng = random.Random(seed + 13)
    corrupted: List[int] = []
    for stripe in sc.stripes:
        members = sorted(stripe.all_block_ids())
        victims = rot_rng.sample(members, min(corrupt_per_stripe,
                                              len(members)))
        for block_id in victims:
            replicas = sc.store.replica_nodes(block_id)
            if not replicas:
                continue
            sc.store.mark_corrupted(block_id, sorted(replicas)[0])
            sc.metrics.count("corruption_injected")
            corrupted.append(block_id)
    sc.metrics.record_storm_event("scrub_storm")

    # A few reads race the scrubber to the rotten blocks.
    _schedule_reads(sc, sc.sim.now + 1.0, sorted(corrupted)[:num_reads])
    sc.scrubber.start()
    drain(sc, horizon=600.0)
    return finish_report(sc, "scrub_storm", policy, seed)


def rolling_failures(
    seed: int = 0,
    policy: str = "ear",
    num_failures: int = 3,
    failure_spacing: float = 15.0,
    num_reads: int = 3,
    **build_kwargs,
) -> StormReport:
    """Nodes keep dying *during* the encoding wave.

    Failures land every ``failure_spacing`` seconds while stripes are
    still encoding, so re-replication of replicated blocks, decode
    repairs of already-encoded stripes, and the wave itself interleave
    on the same links.  Victims are drawn from distinct racks.
    """
    sc = build_storm_cluster(policy=policy, seed=seed, **build_kwargs)
    victim_rng = random.Random(seed + 21)
    racks = sorted(sc.setup.topology.rack_ids())
    victim_racks = victim_rng.sample(racks, min(num_failures, len(racks)))
    victims = [
        victim_rng.choice(sorted(sc.setup.topology.nodes_in_rack(rack)))
        for rack in victim_racks
    ]

    sc.sim.process(_drive_encoding(sc, num_map_tasks=6))
    inject_faults(sc, [
        ChaosEvent(5.0 + index * failure_spacing, NODE_LOSS, victim)
        for index, victim in enumerate(victims)
    ])
    for __ in victims:
        sc.metrics.record_storm_event("rolling_failure")

    sc.sim.run(until=5.0 + num_failures * failure_spacing + 100.0)
    lost = _encoded_blocks_on(sc, victims)
    if not lost:
        # Everything already rebuilt: read a few encoded blocks anyway so
        # the client path is exercised (they'll be served normally).
        lost = sorted(
            member for stripe in sc.stripes
            if stripe.state == StripeState.ENCODED
            for member in stripe.block_ids
        )
    _schedule_reads(sc, sc.sim.now + 1.0, lost[:num_reads],
                    avoid_nodes=victims)
    drain(sc, horizon=600.0)
    return finish_report(sc, "rolling_failures", policy, seed)


def chaos(
    seed: int = 0,
    policy: str = "ear",
    horizon: float = 40.0,
    num_flaps: int = 4,
    num_rack_outages: int = 1,
    num_degradations: int = 2,
    num_corruptions: int = 3,
    **build_kwargs,
) -> StormReport:
    """Every transient fault path against one live encoding wave.

    Nodes flap, a whole rack drops off the core, NICs degrade into
    stragglers and blocks rot silently while the stripes encode; at
    half-horizon one node dies *permanently* and the prioritized queue
    rebuilds what it held.  Clean means nothing was lost and retries
    stayed bounded.
    """
    build_kwargs.setdefault("num_stripes", 12)
    sc = build_storm_cluster(policy=policy, seed=seed, **build_kwargs)
    topology = sc.setup.topology
    sc.scrubber.start()

    # One data block from each of the first few stripes rots, so
    # corruption plus the permanent failure can never push one stripe
    # past its n - k loss budget.
    chaos_rng = random.Random(seed + 31)
    corrupt_blocks = [
        chaos_rng.choice(sorted(stripe.block_ids))
        for stripe in sc.stripes[:num_corruptions]
    ]
    schedule = ChaosSchedule.random_schedule(
        topology, chaos_rng, horizon,
        num_flaps=num_flaps,
        num_rack_outages=num_rack_outages,
        num_degradations=num_degradations,
        corrupt_blocks=corrupt_blocks,
    )
    # The permanent victim is drawn from the nodes no transient fault
    # touches, as it always was, so every seed keeps its fingerprint.
    touched = {e.target for e in schedule if e.kind == NODE_FLAP}
    for event in schedule:
        if event.kind == RACK_OUTAGE:
            touched.update(topology.nodes_in_rack(event.target))
    untouched = [n for n in sorted(topology.node_ids()) if n not in touched]
    if untouched:
        schedule.add(ChaosEvent(
            horizon * 0.5, NODE_LOSS, chaos_rng.choice(untouched)
        ))
    inject_faults(sc, schedule, rng=chaos_rng)

    sc.sim.process(_drive_encoding(sc, num_map_tasks=6))
    drain(sc, horizon=horizon + 300.0)
    return finish_report(sc, "chaos", policy, seed)


#: The scenario pack in canonical order: name -> runner.
SCENARIO_RUNNERS = {
    "single_node_loss": single_node_loss,
    "rack_loss": rack_loss,
    "scrub_storm": scrub_storm,
    "rolling_failures": rolling_failures,
    "chaos": chaos,
}


def run_storm(scenario: str, seed: int = 0, policy: str = "ear",
              **kwargs) -> StormReport:
    """Dispatch one scenario by name.

    Keywords the scenario does not take itself (``num_stripes``,
    ``code``, ``journal``, ...) go on to :func:`build_storm_cluster`.
    """
    try:
        runner = SCENARIO_RUNNERS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; choose from "
            f"{list(SCENARIO_RUNNERS)}"
        ) from None
    return runner(seed=seed, policy=policy, **kwargs)
