"""Crash drills: seeded process-death injection + restart-from-journal.

Extends the chaos layer to the one fault class PR 1 could not model: the
NameNode process itself dying mid-commit.  A deterministic, synchronous
metadata workload (:func:`run_crash_workload`) drives file creation,
block writes, corruption marks, node death, stripe encodes, relocation
and re-replication against a real
:class:`~repro.journal.journal.MetadataJournal`.  It writes every journal
record type except the five no NameNode path writes: ``add_block``,
``stripe_add_block`` and ``seal_stripe`` (stores driven without a
NameNode), ``relocation_requested`` and ``relocation_served`` (the
repair queue); ``tests/journal/test_write_ahead.py`` appends those five
in its own tail.  The crash matrix
(:func:`run_crash_matrix`) then re-runs that workload once per injected
:class:`~repro.journal.crashpoints.CrashPoint` (each block-write and
stripe-encode record × before/torn/after its write), recovers each
crashed journal, and checks the differential contract:

* the recovered ``state_fingerprint()`` equals the fingerprint the
  golden (crash-free) run had at the same durable prefix;
* no stripe is observably half-committed
  (:func:`~repro.journal.recovery.verify_stripe_consistency`);
* ``repro journal verify`` reports zero errors on the crashed log.

Everything derives from one master seed; two matrix runs with the same
seed produce identical reports.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.topology import ClusterTopology
from repro.core.ear import EncodingAwareReplication
from repro.erasure.codec import CodeParams
from repro.hdfs.files import FileNamespace
from repro.hdfs.namenode import NameNode
from repro.journal.crashpoints import CRASH_PHASES, CrashPoint, SimulatedCrash
from repro.journal.journal import DEFAULT_CHECKPOINT_RECORDS, MetadataJournal
from repro.journal.recovery import recover, verify_stripe_consistency
from repro.journal.verify import verify_journal
from repro.journal.wal import scan_journal

#: Stripe geometry of the drill cluster (n=6, k=4 — two parity blocks).
DRILL_CODE = CodeParams(6, 4)
#: Small segments so every drill exercises rotation.
DRILL_SEGMENT_RECORDS = 64
_DRILL_BLOCK_SIZE = 1 << 20


def drill_topology() -> ClusterTopology:
    """The fixed small cluster every crash drill runs on."""
    return ClusterTopology(
        nodes_per_rack=4,
        num_racks=6,
        intra_rack_bandwidth=1e9,
        cross_rack_bandwidth=1e9,
    )


@dataclass
class CrashWorkloadResult:
    """One completed (crash-free) workload run and its artifacts."""

    directory: str
    seed: int
    journal: MetadataJournal
    namenode: NameNode
    namespace: FileNamespace
    topology: ClusterTopology
    code: CodeParams
    final_fingerprint: str
    last_seq: int


def run_crash_workload(
    directory: str,
    seed: int,
    crash_at: Optional[CrashPoint] = None,
    track_fingerprints: bool = False,
    checkpoint_midway: bool = False,
    checkpoint_records: Optional[int] = DEFAULT_CHECKPOINT_RECORDS,
) -> CrashWorkloadResult:
    """Drive the deterministic metadata workload against a journal.

    The op sequence is a pure function of ``seed``: a crashed re-run of
    the same seed performs exactly the same mutations up to the armed
    crash point, which is what makes the golden run's per-prefix
    fingerprints valid expectations for every crashed run.

    Raises:
        SimulatedCrash: When ``crash_at`` fires (the journal directory
            is left exactly as the dead process would leave it).
    """
    rng = random.Random(seed)
    topology = drill_topology()
    journal = MetadataJournal(
        directory,
        segment_records=DRILL_SEGMENT_RECORDS,
        checkpoint_records=checkpoint_records,
        crash_at=crash_at,
        track_fingerprints=track_fingerprints,
    )
    policy = EncodingAwareReplication(
        topology, DRILL_CODE, rng=random.Random(rng.randrange(2**32))
    )
    namenode = NameNode(
        topology, policy, block_size=_DRILL_BLOCK_SIZE, journal=journal
    )
    namespace = FileNamespace()
    journal.attach(namespace=namespace)
    planner = namenode.make_planner(
        DRILL_CODE, rng=random.Random(rng.randrange(2**32))
    )
    writers = sorted(topology.node_ids())

    # Phase 1: files + enough blocks to seal several stripes.
    namespace.create("/drill/a")
    namespace.create("/drill/b")
    for index in range(8 * DRILL_CODE.k):
        block, _decision = namenode.allocate_block(
            writer_node=rng.choice(writers)
        )
        name = "/drill/a" if index % 2 == 0 else "/drill/b"
        namespace.append_block(name, block.block_id, block.size)

    # Phase 2: corruption on an open-stripe block, plus a node flap.
    store = namenode.block_store
    open_blocks = sorted(
        b.block_id for b in store.blocks()
        if not b.is_parity() and len(store.replica_nodes(b.block_id)) > 1
    )
    victim = rng.choice(open_blocks)
    victim_node = rng.choice(sorted(store.replica_nodes(victim)))
    store.mark_corrupted(victim, victim_node)
    journal.node_dead(rng.choice(writers))
    store.clear_corrupted(victim, victim_node)

    if checkpoint_midway:
        journal.checkpoint()

    # Phase 3: encode every sealed stripe, one record each.
    for stripe in sorted(
        namenode.sealed_stripes(), key=lambda s: s.stripe_id
    ):
        plan = planner.plan(stripe)
        namenode.record_encoding(stripe, plan)

    # Phase 4: post-encode churn — relocation, re-replication, node
    # rejoin, file deletion.
    encoded_blocks = sorted(
        b.block_id for b in store.blocks()
        if not b.is_parity() and len(store.replica_nodes(b.block_id)) == 1
    )
    if encoded_blocks:
        mover = rng.choice(encoded_blocks)
        src = store.replica_nodes(mover)[0]
        free_nodes = [
            n for n in writers if n not in store.replica_nodes(mover)
        ]
        store.move_replica(mover, src, rng.choice(free_nodes))
        # A surplus copy placed and trimmed again, as repair re-replicates:
        # the place and delete records, with the state left as it was.
        spare = next(n for n in writers if n not in store.replica_nodes(mover))
        store.add_replica(mover, spare)
        store.remove_replica(mover, spare)
    dead = sorted(journal.stores.dead_nodes)
    for node_id in dead:
        journal.node_alive(node_id)
    namespace.delete("/drill/b")
    for _extra in range(2):
        block, _decision = namenode.allocate_block(
            writer_node=rng.choice(writers)
        )
        namespace.append_block("/drill/a", block.block_id, block.size)

    journal.flush()
    return CrashWorkloadResult(
        directory=directory,
        seed=seed,
        journal=journal,
        namenode=namenode,
        namespace=namespace,
        topology=topology,
        code=DRILL_CODE,
        final_fingerprint=journal.current_fingerprint(),
        last_seq=journal.last_seq,
    )


def golden_fingerprints(golden: CrashWorkloadResult) -> Dict[int, str]:
    """Per-prefix fingerprints of the golden run.

    ``fps[s]`` is the state fingerprint *before* record ``s`` applied —
    i.e. the state a recovery of durable prefix ``s - 1`` must
    reproduce.  ``fps[last_seq + 1]`` is the final state.
    """
    fps = dict(golden.journal.fingerprints)
    fps[golden.last_seq + 1] = golden.final_fingerprint
    return fps


def commit_stage_points(
    golden: CrashWorkloadResult,
    phases: Tuple[str, ...] = CRASH_PHASES,
) -> List[CrashPoint]:
    """Every crash point the matrix injects for one golden run.

    Covers every ``allocate_block`` and ``encode_stripe`` record — each
    block write and each stripe encode, the events a crash must find
    wholly done or not begun — plus three controls (an early record, the
    record before the first encode, and the final record), each at every
    requested crash phase.
    """
    envelopes = scan_journal(golden.directory).envelopes
    stages = [
        envelope["seq"] for envelope in envelopes
        if envelope["type"] in ("allocate_block", "encode_stripe")
    ]
    first_encode = next((
        envelope["seq"] for envelope in envelopes
        if envelope["type"] == "encode_stripe"
    ), 2)
    seqs = [2, first_encode - 1, golden.last_seq, *stages]
    unique = sorted({s for s in seqs if 1 <= s <= golden.last_seq})
    return [
        CrashPoint(seq=seq, phase=phase)
        for seq in unique
        for phase in phases
    ]


@dataclass
class CrashCaseResult:
    """One injected crash, recovered and checked."""

    point: CrashPoint
    durable_seq: int
    expected: str
    recovered: str
    fingerprint_match: bool
    half_commit_problems: Tuple[str, ...]
    verify_errors: Tuple[str, ...]
    recovery_errors: Tuple[str, ...]

    @property
    def clean(self) -> bool:
        """True when every differential and structural check passed."""
        return (
            self.fingerprint_match
            and not self.half_commit_problems
            and not self.verify_errors
            and not self.recovery_errors
        )


@dataclass
class CrashMatrixReport:
    """Every crash case of one seed, plus the golden run's shape."""

    seed: int
    golden_fingerprint: str
    golden_records: int
    cases: List[CrashCaseResult] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when every injected crash recovered consistently."""
        return bool(self.cases) and all(case.clean for case in self.cases)

    def summary(self) -> Dict[str, object]:
        """Flat printable snapshot (example/CI output source)."""
        return {
            "seed": self.seed,
            "golden_records": self.golden_records,
            "crash_cases": len(self.cases),
            "fingerprint_matches": sum(
                1 for case in self.cases if case.fingerprint_match
            ),
            "clean": self.clean,
            "golden_fingerprint": self.golden_fingerprint[:16],
        }


def run_crash_matrix(
    seed: int,
    base_dir: str,
    phases: Tuple[str, ...] = CRASH_PHASES,
    checkpoint_midway: bool = False,
    checkpoint_records: Optional[int] = DEFAULT_CHECKPOINT_RECORDS,
    points: Optional[Sequence[CrashPoint]] = None,
) -> CrashMatrixReport:
    """Golden run + one crashed run per crash point.

    ``points`` defaults to the commit-stage points of the golden run;
    a small ``checkpoint_records`` makes periodic checkpoints fall all
    through the drill, so recoveries start from one.
    ``base_dir`` receives one journal directory per run (``golden`` plus
    ``case-NNN``), all of which ``repro journal verify`` must pass.
    """
    golden = run_crash_workload(
        os.path.join(base_dir, "golden"),
        seed,
        track_fingerprints=True,
        checkpoint_midway=checkpoint_midway,
        checkpoint_records=checkpoint_records,
    )
    golden.journal.close()
    fps = golden_fingerprints(golden)
    report = CrashMatrixReport(
        seed=seed,
        golden_fingerprint=golden.final_fingerprint,
        golden_records=golden.last_seq,
    )
    if points is None:
        points = commit_stage_points(golden, phases)
    for index, point in enumerate(points):
        case_dir = os.path.join(base_dir, f"case-{index:03d}")
        crashed = False
        try:
            result = run_crash_workload(
                case_dir, seed,
                crash_at=point,
                checkpoint_midway=checkpoint_midway,
                checkpoint_records=checkpoint_records,
            )
            result.journal.close()
        except SimulatedCrash:
            crashed = True
        recovered = recover(case_dir, golden.topology, k=golden.code.k)
        expected = fps[point.durable_seq + 1]
        actual = recovered.fingerprint()
        verify_report = verify_journal(case_dir)
        recovery_errors = list(recovered.stats.errors)
        if not crashed:
            recovery_errors.append(
                f"crash point seq {point.seq} ({point.phase}) never fired"
            )
        report.cases.append(CrashCaseResult(
            point=point,
            durable_seq=point.durable_seq,
            expected=expected,
            recovered=actual,
            fingerprint_match=(expected == actual),
            half_commit_problems=tuple(
                verify_stripe_consistency(recovered.stores)
            ),
            verify_errors=tuple(verify_report.errors),
            recovery_errors=tuple(recovery_errors),
        ))
    return report
