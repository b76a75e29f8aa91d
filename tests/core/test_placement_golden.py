"""Golden identity of the placement core.

Every solver or topology change under EAR's redraw loop and the retention
plan must leave the placements byte-identical: the same replica nodes and
redraw counts per block, the same retained replica, parity nodes and
encoder per stripe.  The digests below were recorded before the solver
became id-addressed (PR 18) and must never be re-recorded to make a
change pass — a moved digest means a different matching or a different
``rng`` draw sequence.
"""

import hashlib
import random

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.ear import EncodingAwareReplication
from repro.core.policy import ReplicationScheme
from repro.core.random_replication import RandomReplication
from repro.core.stripe import PreEncodingStore, StripeState
from repro.erasure.codec import CodeParams
from repro.hdfs.namenode import NameNode

CODE = CodeParams(14, 10)
STRIPES = 60


def _policy(name, topology, rng):
    if name == "rr":
        return RandomReplication(
            topology, scheme=ReplicationScheme(3, 2), rng=rng,
            store=PreEncodingStore(CODE.k),
        )
    if name == "ear":
        return EncodingAwareReplication(
            topology, CODE, scheme=ReplicationScheme(3, 2), rng=rng
        )
    assert name == "ear_c2"
    return EncodingAwareReplication(
        topology, CODE, scheme=ReplicationScheme(3, 2), rng=rng,
        c=2, num_target_racks=8, reserve_core_for_parity=True,
    )


def placement_digest(name: str, seed: int) -> str:
    """SHA-256 over every placement decision and every encoding plan."""
    topology = ClusterTopology(nodes_per_rack=20, num_racks=20)
    rng = random.Random(seed)
    namenode = NameNode(topology, _policy(name, topology, rng))
    planner = namenode.make_planner(CODE, rng=rng)
    store = namenode.pre_encoding_store
    writers = list(topology.node_ids())
    digest = hashlib.sha256()
    sealed = 0
    while sealed < STRIPES:
        __, decision = namenode.allocate_block(writer_node=rng.choice(writers))
        digest.update(repr((decision.node_ids, decision.attempts)).encode())
        if store.stripe(decision.stripe_id).state == StripeState.SEALED:
            sealed += 1
    for stripe in store.sealed_stripes()[:STRIPES]:
        plan = planner.plan(stripe)
        namenode.record_encoding(stripe, plan)
        digest.update(
            repr(
                (plan.retained, plan.parity_nodes, plan.encoder_node)
            ).encode()
        )
    return digest.hexdigest()


GOLDEN = {
    ("rr", 0):
        "e7a84600129963ce41e63447457cf56d4006643fb127487217283732b6964d96",
    ("rr", 1):
        "29f19d385e1dd91a3fb9809290c98b9980e7eaadf1ad4e31e22cbf3a7bee38dc",
    ("ear", 0):
        "dbe0e9c4ecd3800e1e088ee5974b62a98ff4660f6f7e1aea648aaecb3f2b0cdd",
    ("ear", 1):
        "a9638f32ec775533d361a1e1b5354b4d9a10ce89de473276b74aab73bbb60ec3",
    ("ear_c2", 0):
        "211875816c1a7a8af18d551d60f8ab882c9321025f34adfc9b0fbf13039d0e78",
}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_placements_and_plans_match_the_recorded_digest(name, seed):
    assert placement_digest(name, seed) == GOLDEN[(name, seed)]
