"""Indexed repair dispatch against the sort-and-recount oracle.

The queue keeps live-member counts in the block store and its waiting
blocks in a heap; ``reference_dispatch`` keeps the rule it replaced.  Random
fault scripts — node loss, rack loss and corruption, striking during the
encoding wave — must start the same block at every dispatch, and every
stripe's kept count must equal a recount, also after replica moves and
after journal recovery.
"""

import random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.faults.chaos import CORRUPT_BLOCK, NODE_LOSS, RACK_LOSS, ChaosEvent
from repro.faults.crash import commit_stage_points, run_crash_workload
from repro.journal import MetadataJournal, recover
from repro.journal.crashpoints import SimulatedCrash
from repro.recovery.storm import (
    build_storm_cluster,
    drain,
    encode_all,
    inject_faults,
)
from tests.faults.reference_dispatch import (
    live_member_mismatches,
    reference_order,
)

NUM_RACKS = 8
NODES_PER_RACK = 4
STRIPES = 4

times = st.integers(0, 60).map(lambda t: t / 2)
losses = st.one_of(
    st.builds(
        ChaosEvent, time=times, kind=st.just(NODE_LOSS),
        target=st.integers(0, NUM_RACKS * NODES_PER_RACK - 1),
    ),
    st.builds(
        ChaosEvent, time=times, kind=st.just(RACK_LOSS),
        target=st.integers(0, NUM_RACKS - 1),
    ),
)
corruptions = st.builds(
    ChaosEvent, time=times, kind=st.just(CORRUPT_BLOCK),
    target=st.integers(0, 40),
)


def check_every_dispatch(queue):
    """Assert the oracle's pick and recounted margins at each dispatch.

    Returns the list the started blocks are appended to.
    """
    started = []
    namenode = queue.namenode
    start = queue._repair_and_finish

    def checked(block_id):
        waiting = [
            b for b in queue._pending
            if b not in queue._active or b == block_id
        ]
        assert reference_order(namenode, waiting)[0] == block_id
        assert live_member_mismatches(
            namenode.block_store, namenode.pre_encoding_store
        ) == {}
        started.append(block_id)
        return start(block_id)

    queue._repair_and_finish = checked
    return started


def encoding_wave(sc, failures):
    try:
        yield from sc.setup.raidnode.run_encoding(
            sc.setup.job_tracker, sc.stripes, num_map_tasks=6
        )
    except Exception as exc:  # noqa: BLE001 — losses may strand a stripe
        failures.append(exc)


#: No explain phase: it re-runs failing examples under a tracer, which
#: turns a quick counter-example into minutes.
@settings(
    max_examples=100, deadline=None, derandomize=True,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink),
)
@given(
    first=losses,
    rest=st.lists(st.one_of(losses, corruptions), max_size=4),
    concurrency=st.sampled_from([1, 4]),
    policy=st.sampled_from(["ear", "rr"]),
    seed=st.integers(0, 3),
)
def test_every_dispatch_starts_the_oracles_pick(
    first, rest, concurrency, policy, seed
):
    sc = build_storm_cluster(
        policy=policy, seed=seed, num_racks=NUM_RACKS,
        nodes_per_rack=NODES_PER_RACK, num_stripes=STRIPES,
        repair_concurrency=concurrency,
    )
    check_every_dispatch(sc.repair_queue)
    sc.scrubber.start()
    sc.sim.process(encoding_wave(sc, []))
    inject_faults(sc, [first] + rest, rng=random.Random(seed))
    drain(sc, horizon=120.0, rounds=2)
    store = sc.store
    assert live_member_mismatches(
        store, sc.setup.namenode.pre_encoding_store
    ) == {}


def test_a_deep_rack_loss_starts_every_block_in_oracle_order():
    """Hundreds waiting at once: the order is the oracle's, block by block."""
    sc = build_storm_cluster(
        policy="ear", seed=0, num_racks=NUM_RACKS,
        nodes_per_rack=NODES_PER_RACK, num_stripes=60, repair_concurrency=1,
    )
    encode_all(sc)
    started = check_every_dispatch(sc.repair_queue)
    inject_faults(sc, [ChaosEvent(sc.sim.now + 1.0, RACK_LOSS, 0)])
    drain(sc, horizon=2000.0)
    assert len(started) > 50
    assert sc.repair_queue.pending_count == 0


def test_counts_follow_replica_moves():
    sc = build_storm_cluster(policy="ear", seed=1, num_stripes=STRIPES)
    encode_all(sc)
    store = sc.store
    rng = random.Random(5)
    members = sorted(
        member for stripe in sc.stripes for member in stripe.all_block_ids()
    )
    for block_id in rng.sample(members, 10):
        src = store.replica_nodes(block_id)[0]
        dst = rng.choice([
            n for n in sc.setup.topology.node_ids()
            if n not in store.replica_nodes(block_id)
        ])
        store.move_replica(block_id, src, dst)
        assert live_member_mismatches(
            store, sc.setup.namenode.pre_encoding_store
        ) == {}


def test_counts_rebuilt_by_recovering_a_storm_journal(tmp_path):
    journal = MetadataJournal(str(tmp_path), segment_records=256)
    sc = build_storm_cluster(policy="ear", seed=2, journal=journal)
    encode_all(sc)
    inject_faults(sc, [ChaosEvent(sc.sim.now + 1.0, RACK_LOSS, 3)])
    drain(sc, horizon=600.0)
    journal.flush()
    journal.close()
    recovered = recover(str(tmp_path), sc.setup.topology)
    assert recovered.stores.stripes is not None
    assert live_member_mismatches(
        recovered.stores.blocks, recovered.stores.stripes
    ) == {}
    live = sc.setup.namenode
    assert [
        recovered.stores.blocks.live_members(s.stripe_id) for s in sc.stripes
    ] == [live.block_store.live_members(s.stripe_id) for s in sc.stripes]


@pytest.mark.parametrize("seed", [0, 1])
def test_counts_rebuilt_by_recovery_at_every_commit_stage(tmp_path, seed):
    """Crashes at every block write and stripe encode: replay rebuilds
    the counts from the durable prefix."""
    golden = run_crash_workload(str(tmp_path / "golden"), seed)
    golden.journal.close()
    for index, point in enumerate(commit_stage_points(golden)):
        directory = str(tmp_path / f"case-{index}")
        try:
            run_crash_workload(directory, seed, crash_at=point).journal.close()
        except SimulatedCrash:
            pass
        recovered = recover(directory, golden.topology, k=golden.code.k)
        assert live_member_mismatches(
            recovered.stores.blocks, recovered.stores.stripes
        ) == {}, point
