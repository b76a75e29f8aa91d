"""Byte-level integration: placement metadata + the real RS codec.

The simulator moves block *sizes*; this suite carries real bytes through
the same lifecycle — write k blocks, place with EAR, compute true parity,
delete redundant replicas, fail nodes/racks, and reconstruct bit-exact
data — proving the metadata layer and the codec compose correctly.
"""

import random

import pytest

from repro.cluster.block import BlockStore
from repro.cluster.topology import ClusterTopology
from repro.core.ear import EncodingAwareReplication
from repro.core.parity import plan_ear_encoding
from repro.erasure.codec import CodeParams, make_codec
from repro.journal.state import Stores

CODE = CodeParams(6, 4)
TOPO = ClusterTopology(nodes_per_rack=4, num_racks=8)
BLOCK_SIZE = 4096


class ByteCluster:
    """A miniature CFS holding real bytes per (node, block) pair."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.store = BlockStore(TOPO)
        self.policy = EncodingAwareReplication(TOPO, CODE, rng=self.rng)
        self.data = {}  # (node_id, block_id) -> bytes
        self.codec = make_codec(CODE.n, CODE.k)

    def write_block(self, payload):
        block = self.store.create_block(len(payload))
        decision = self.policy.place_block(block.block_id)
        self.store.add_replicas(block.block_id, decision.node_ids)
        for node in decision.node_ids:
            self.data[(node, block.block_id)] = payload
        return block

    def encode_stripe(self, stripe):
        plan = plan_ear_encoding(TOPO, self.store, stripe, CODE, rng=self.rng)
        # The encoder reads one replica of each block from its own rack.
        payloads = []
        encoder_rack = TOPO.rack_of(plan.encoder_node)
        for block_id in stripe.block_ids:
            source = next(
                n for n in self.store.replica_nodes(block_id)
                if TOPO.rack_of(n) == encoder_rack
            )
            payloads.append(self.data[(source, block_id)])
        parity_payloads = self.codec.encode(payloads)
        # Parity goes in, redundant replicas go, per the plan.
        trimmed = [
            (node, block_id) for block_id, keeper in plan.retained.items()
            for node in self.store.replica_nodes(block_id) if node != keeper
        ]
        stores = Stores(blocks=self.store, stripes=self.policy.store)
        parity_blocks = stores.encode_stripe(
            stripe.stripe_id, plan.parity_nodes, BLOCK_SIZE,
            plan.retained.items(),
        )
        for node, parity, payload in zip(
            plan.parity_nodes, parity_blocks, parity_payloads
        ):
            self.data[(node, parity.block_id)] = payload
        for key in trimmed:
            del self.data[key]
        return plan

    def fail_rack(self, rack_id):
        for node in TOPO.nodes_in_rack(rack_id):
            for block_id in list(self.store.blocks_on_node(node)):
                self.store.remove_replica(block_id, node)
                del self.data[(node, block_id)]

    def read_stripe_blocks(self, stripe):
        """Reconstruct all k data payloads from whatever survives."""
        available = {}
        all_ids = stripe.all_block_ids()
        for index, block_id in enumerate(all_ids):
            nodes = self.store.replica_nodes(block_id)
            if nodes:
                available[index] = self.data[(nodes[0], block_id)]
        return self.codec.decode(available)


@pytest.fixture
def cluster():
    return ByteCluster(seed=99)


def write_one_stripe(cluster):
    payloads = []
    while not cluster.policy.store.sealed_stripes():
        payload = bytes(
            cluster.rng.randrange(256) for __ in range(BLOCK_SIZE)
        )
        block = cluster.write_block(payload)
        payloads.append((block.block_id, payload))
    stripe = cluster.policy.store.sealed_stripes()[0]
    by_id = dict(payloads)
    return stripe, [by_id[b] for b in stripe.block_ids]


class TestByteLevelPipeline:
    def test_replicas_hold_identical_bytes(self, cluster):
        payload = b"\x01\x02" * 100
        block = cluster.write_block(payload)
        for node in cluster.store.replica_nodes(block.block_id):
            assert cluster.data[(node, block.block_id)] == payload

    def test_encode_then_read_back(self, cluster):
        stripe, originals = write_one_stripe(cluster)
        cluster.encode_stripe(stripe)
        assert cluster.read_stripe_blocks(stripe) == originals

    def test_parity_is_consistent(self, cluster):
        stripe, originals = write_one_stripe(cluster)
        cluster.encode_stripe(stripe)
        blocks = {}
        for index, block_id in enumerate(stripe.all_block_ids()):
            node = cluster.store.replica_nodes(block_id)[0]
            blocks[index] = cluster.data[(node, block_id)]
        assert cluster.codec.verify(blocks)

    def test_survives_any_single_rack_failure(self, cluster):
        stripe, originals = write_one_stripe(cluster)
        cluster.encode_stripe(stripe)
        occupied_racks = {
            TOPO.rack_of(cluster.store.replica_nodes(b)[0])
            for b in stripe.all_block_ids()
        }
        for rack in occupied_racks:
            trial = ByteCluster(seed=99)
            stripe2, originals2 = write_one_stripe(trial)
            trial.encode_stripe(stripe2)
            trial.fail_rack(rack)
            assert trial.read_stripe_blocks(stripe2) == originals2

    def test_survives_two_node_failures(self, cluster):
        stripe, originals = write_one_stripe(cluster)
        cluster.encode_stripe(stripe)
        nodes = [
            cluster.store.replica_nodes(b)[0] for b in stripe.all_block_ids()
        ]
        for victim in nodes[: CODE.num_parity]:
            for block_id in list(cluster.store.blocks_on_node(victim)):
                cluster.store.remove_replica(block_id, victim)
                del cluster.data[(victim, block_id)]
        assert cluster.read_stripe_blocks(stripe) == originals

    def test_storage_overhead_drops_after_encoding(self, cluster):
        stripe, __ = write_one_stripe(cluster)
        replicas_before = sum(
            len(cluster.store.replica_nodes(b)) for b in stripe.block_ids
        )
        assert replicas_before == 3 * CODE.k
        cluster.encode_stripe(stripe)
        copies_after = sum(
            len(cluster.store.replica_nodes(b))
            for b in stripe.all_block_ids()
        )
        assert copies_after == CODE.n  # 3x -> n/k overhead
