"""Cross-module property tests (hypothesis): invariants under random input.

These fuzz the seams between subsystems: random traffic through the DES
network must conserve bytes and never deadlock; random placement + encode
sequences must preserve metadata invariants under both policies; random
failure/repair cycles must keep stripes decodable while any k blocks live.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.block import BlockStore
from repro.cluster.topology import ClusterTopology
from repro.core.ear import EncodingAwareReplication
from repro.core.parity import plan_ear_encoding, plan_rr_encoding
from repro.core.random_replication import RandomReplication
from repro.core.stripe import PreEncodingStore
from repro.erasure.codec import CodeParams, make_codec
from repro.journal.state import Stores
from repro.sim.engine import Simulator
from repro.sim.netsim import Network


@given(seed=st.integers(0, 2**16), flows=st.integers(1, 40))
@settings(max_examples=20, deadline=None)
def test_property_network_conserves_bytes_and_terminates(seed, flows):
    """Random concurrent transfers all finish; stats account every byte."""
    rng = random.Random(seed)
    topo = ClusterTopology(
        nodes_per_rack=rng.randrange(1, 4),
        num_racks=rng.randrange(2, 6),
        intra_rack_bandwidth=100.0,
        cross_rack_bandwidth=50.0,
    )
    sim = Simulator()
    net = Network(sim, topo)
    total = 0.0
    done = []

    def flow(src, dst, size):
        yield from net.transfer(src, dst, size)
        done.append(size)

    for __ in range(flows):
        src, dst = rng.sample(range(topo.num_nodes), 2) if topo.num_nodes > 1 else (0, 0)
        size = rng.uniform(1, 500)
        total += size
        sim.process(flow(src, dst, size))
    sim.run()
    assert len(done) == flows  # no deadlock, everything completed
    assert net.stats.bytes_total == pytest.approx(total)
    assert net.stats.bytes_cross_rack <= net.stats.bytes_total + 1e-9
    # With nothing left to do, all links must be free.
    assert net.links.held_keys == frozenset()
    assert net.links.queue_length == 0


@given(seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_property_transfer_times_respect_bottleneck(seed):
    """A lone transfer's duration is exactly size / min(bandwidths)."""
    rng = random.Random(seed)
    intra = rng.uniform(10, 200)
    cross = rng.uniform(10, 200)
    topo = ClusterTopology(
        nodes_per_rack=2, num_racks=2,
        intra_rack_bandwidth=intra, cross_rack_bandwidth=cross,
    )
    sim = Simulator()
    net = Network(sim, topo)
    size = rng.uniform(1, 1000)
    cross_rack = rng.random() < 0.5
    dst = 2 if cross_rack else 1
    finished = []

    def flow():
        yield from net.transfer(0, dst, size)
        finished.append(sim.now)

    sim.process(flow())
    sim.run()
    bottleneck = min(intra, cross) if cross_rack else intra
    assert finished[0] == pytest.approx(size / bottleneck)


@given(seed=st.integers(0, 2**16), num_blocks=st.integers(20, 80))
@settings(max_examples=15, deadline=None)
def test_property_metadata_invariants_under_mixed_operations(seed, num_blocks):
    """Random place/encode sequences keep the block store consistent."""
    rng = random.Random(seed)
    topo = ClusterTopology(nodes_per_rack=4, num_racks=8)
    code = CodeParams(6, 4)
    store = BlockStore(topo)
    if rng.random() < 0.5:
        policy = EncodingAwareReplication(topo, code, rng=rng)
        plan_fn = lambda s: plan_ear_encoding(topo, store, s, code, rng=rng)
        stripe_store = policy.store
    else:
        stripe_store = PreEncodingStore(code.k)
        policy = RandomReplication(topo, rng=rng, store=stripe_store)
        plan_fn = lambda s: plan_rr_encoding(topo, store, s, code, rng=rng)

    encoded = []
    for __ in range(num_blocks):
        block = store.create_block(100)
        decision = policy.place_block(block.block_id)
        store.add_replicas(block.block_id, decision.node_ids)
        # Occasionally encode a pending sealed stripe mid-stream.
        pending = [
            s for s in stripe_store.sealed_stripes() if s not in encoded
        ]
        if pending and rng.random() < 0.4:
            stripe = pending[0]
            plan = plan_fn(stripe)
            Stores(blocks=store, stripes=stripe_store).encode_stripe(
                stripe.stripe_id, plan.parity_nodes, 100,
                plan.retained.items(),
            )
            encoded.append(stripe)

    # Invariants: replica counts are consistent from both directions.
    per_node = store.replica_count_per_node()
    assert sum(per_node.values()) == sum(
        len(store.replica_nodes(b.block_id)) for b in store.blocks()
    )
    for stripe in encoded:
        for block_id in stripe.block_ids:
            assert len(store.replica_nodes(block_id)) == 1
        assert len(stripe.parity_block_ids) == code.num_parity


@given(seed=st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_property_random_failures_never_lose_decodable_data(seed):
    """Kill random blocks of an encoded stripe: while at most n - k are
    gone the data decodes bit-exactly; beyond that decode must fail."""
    rng = random.Random(seed)
    k, m = rng.randrange(2, 6), rng.randrange(1, 4)
    codec = make_codec(k + m, k)
    data = [bytes(rng.randrange(256) for __ in range(40)) for __ in range(k)]
    parity = codec.encode(data)
    blocks = {i: d.ljust(40, b"\0") for i, d in enumerate(data)}
    blocks.update({k + i: p for i, p in enumerate(parity)})

    alive = dict(blocks)
    kill_order = rng.sample(sorted(alive), k + m)
    for losses, victim in enumerate(kill_order, start=1):
        del alive[victim]
        if losses <= m:
            out = codec.decode(alive, original_lengths=[len(d) for d in data])
            assert out == data
        else:
            with pytest.raises(ValueError):
                codec.decode(alive)
            break
