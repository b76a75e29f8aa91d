"""Property test: a crash after ANY record leaves a recoverable prefix.

Hypothesis drives a seeded random metadata op sequence against a
journaling :class:`BlockStore`/:class:`FileNamespace`, crashes it at an
arbitrary sequence number in an arbitrary phase (before the append, a
torn half-record, or after the write), and asserts recovery rebuilds
exactly the durable prefix's fingerprint.
"""

import os
import random
import tempfile

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - image without hypothesis
    pytest.skip("hypothesis is not installed", allow_module_level=True)

from repro.cluster.block import BlockStore
from repro.cluster.topology import ClusterTopology
from repro.hdfs.files import FileNamespace
from repro.journal import (
    CrashPoint,
    MetadataJournal,
    SimulatedCrash,
    recover,
    verify_journal,
)
from repro.journal.crashpoints import CRASH_PHASES

NUM_OPS = 24


def _topology():
    return ClusterTopology(nodes_per_rack=3, num_racks=2)


def _drive(directory, seed, crash_at=None, track_fingerprints=False,
           checkpoint_records=None):
    """Apply a seeded op sequence; identical for golden and crashed runs."""
    rng = random.Random(seed)
    topology = _topology()
    journal = MetadataJournal(
        directory, segment_records=8, crash_at=crash_at,
        track_fingerprints=track_fingerprints,
        checkpoint_records=checkpoint_records,
    )
    store = BlockStore(topology)
    namespace = FileNamespace()
    journal.attach(block_store=store, namespace=namespace)
    nodes = sorted(topology.node_ids())
    namespace.create("/prop/file")
    holders = {}
    corrupted = set()
    for step in range(NUM_OPS):
        op = rng.randrange(5)
        if op == 0 or not holders:
            node = nodes[rng.randrange(len(nodes))]
            block = store.create_block(512 + step)
            store.add_replica(block.block_id, node, is_primary=True)
            namespace.append_block("/prop/file", block.block_id, block.size)
            holders[block.block_id] = [node]
        elif op == 1:
            block_id = rng.choice(sorted(holders))
            free = [n for n in nodes if n not in holders[block_id]]
            if free:
                node = free[rng.randrange(len(free))]
                store.add_replica(block_id, node)
                holders[block_id].append(node)
        elif op == 2:
            block_id = rng.choice(sorted(holders))
            if len(holders[block_id]) > 1:
                node = holders[block_id][
                    rng.randrange(len(holders[block_id]))
                ]
                store.remove_replica(block_id, node)
                holders[block_id].remove(node)
                corrupted.discard((block_id, node))
        elif op == 3:
            block_id = rng.choice(sorted(holders))
            node = holders[block_id][rng.randrange(len(holders[block_id]))]
            if (block_id, node) in corrupted:
                store.clear_corrupted(block_id, node)
                corrupted.discard((block_id, node))
            else:
                store.mark_corrupted(block_id, node)
                corrupted.add((block_id, node))
        else:
            block_id = rng.choice(sorted(holders))
            src = holders[block_id][rng.randrange(len(holders[block_id]))]
            free = [n for n in nodes if n not in holders[block_id]]
            if free:
                dst = free[rng.randrange(len(free))]
                store.move_replica(block_id, src, dst)
                holders[block_id][holders[block_id].index(src)] = dst
                corrupted.discard((block_id, src))
    journal.flush()
    return journal


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=9999),
    offset=st.integers(min_value=0, max_value=9999),
    phase=st.sampled_from(CRASH_PHASES),
)
def test_crash_at_any_record_recovers_the_durable_prefix(seed, offset, phase):
    with tempfile.TemporaryDirectory() as base:
        golden_dir = os.path.join(base, "golden")
        journal = _drive(golden_dir, seed, track_fingerprints=True)
        fingerprints = dict(journal.fingerprints)
        fingerprints[journal.last_seq + 1] = journal.current_fingerprint()
        last_seq = journal.last_seq
        journal.close()

        crash_seq = 1 + offset % last_seq
        point = CrashPoint(seq=crash_seq, phase=phase)
        crash_dir = os.path.join(base, "crashed")
        with pytest.raises(SimulatedCrash):
            _drive(crash_dir, seed, crash_at=point)

        recovered = recover(crash_dir, _topology())
        assert recovered.stats.errors == []
        assert recovered.fingerprint() == fingerprints[point.durable_seq + 1]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=9999),
    offset=st.integers(min_value=0, max_value=9999),
    phase=st.sampled_from(CRASH_PHASES),
    cadence=st.integers(min_value=1, max_value=20),
)
def test_any_checkpoint_cadence_recovers_the_same_prefix(
    seed, offset, phase, cadence
):
    """Periodic checkpoints at any cadence (below, at and above the
    segment size) change neither the log nor what a crash recovers."""
    with tempfile.TemporaryDirectory() as base:
        golden_dir = os.path.join(base, "golden")
        journal = _drive(golden_dir, seed, track_fingerprints=True)
        fingerprints = dict(journal.fingerprints)
        fingerprints[journal.last_seq + 1] = journal.current_fingerprint()
        last_seq = journal.last_seq
        journal.close()

        point = CrashPoint(seq=1 + offset % last_seq, phase=phase)
        crash_dir = os.path.join(base, "crashed")
        with pytest.raises(SimulatedCrash):
            _drive(crash_dir, seed, crash_at=point, checkpoint_records=cadence)

        recovered = recover(crash_dir, _topology())
        assert recovered.stats.errors == []
        assert recovered.stats.checkpoint_seq == (
            (point.seq - 1) // cadence * cadence
        )
        assert recovered.stats.replayed_ops <= cadence
        assert recovered.fingerprint() == fingerprints[point.durable_seq + 1]
        assert verify_journal(crash_dir).ok


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=9999))
def test_golden_run_fingerprint_is_seed_deterministic(seed):
    with tempfile.TemporaryDirectory() as base:
        first = _drive(os.path.join(base, "a"), seed)
        second = _drive(os.path.join(base, "b"), seed)
        fp_a = first.current_fingerprint()
        fp_b = second.current_fingerprint()
        first.close()
        second.close()
        assert fp_a == fp_b
