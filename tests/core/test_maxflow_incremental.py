"""The incremental matcher versus from-scratch max flow, and end-to-end
EAR placement identity.

The differential oracle in every test is the from-scratch path: the
reference Dinic rebuilt per attempt and a fresh ``RackMatching.solve``
per candidate — for EAR itself by replaying every candidate the redraw
loop drew (``tests.core.reference_flow.ear_redraws_vs_fresh``).
"""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from repro.core.ear import EncodingAwareReplication
from repro.core.matching import RackMatching, retention_capacity
from repro.erasure.codec import CodeParams
from tests.core.reference_flow import (
    LabelDinic,
    ear_redraws_vs_fresh,
    ear_retention_plan,
    stripe_layouts,
)


def _matcher_state(matching):
    """Every dict and list the matcher keeps, deep-copied."""
    return copy.deepcopy({
        name: value
        for name, value in vars(matching).items()
        if isinstance(value, dict)
    })


class TestIncrementalVsFreshDinic:
    """Blocks arrive one at a time with random unit edges to slots of
    capacity ``slot_cap``; the matcher keeps a block iff one more unit
    routes, the fresh oracle rebuilds and re-solves the whole graph per
    step.  A slot is a rack, and every (block, slot) edge its own node,
    so only the slot capacities bind."""

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_property_decisions_match(self, seed):
        r = random.Random(seed)
        num_slots = r.randrange(2, 7)
        slot_cap = r.randrange(1, 3)
        incremental = RackMatching(
            rack_of=lambda node: node[1], capacity=lambda slot: slot_cap
        )

        accepted = []  # (block, slots) pairs the matcher kept
        for block in range(r.randrange(3, 12)):
            slots = r.sample(range(num_slots), r.randrange(1, num_slots + 1))
            take = incremental.add(block, [(block, slot) for slot in slots])

            fresh = LabelDinic()
            for kept_block, kept_slots in accepted + [(block, slots)]:
                fresh.add_edge("s", ("b", kept_block), 1)
                for slot in kept_slots:
                    fresh.add_edge(("b", kept_block), ("slot", slot), 1)
            for slot in range(num_slots):
                fresh.add_edge(("slot", slot), "t", slot_cap)
            oracle = fresh.max_flow("s", "t") == len(accepted) + 1

            assert take == oracle
            if take:
                accepted.append((block, slots))


class TestSessionVsFreshFlowGraph:
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_property_stripe_sessions_match(self, seed):
        r = random.Random(seed)
        topology = ClusterTopology(nodes_per_rack=4, num_racks=5)
        capacity = retention_capacity(r.randrange(1, 3))
        matching = RackMatching(topology.rack_of, capacity)
        kept = {}
        for block in range(8):
            nodes = r.sample(range(topology.num_nodes), 3)
            candidate = dict(kept)
            candidate[block] = nodes
            fresh = RackMatching(topology.rack_of, capacity).solve(candidate)
            oracle = len(fresh) == len(candidate)
            assert matching.add(block, nodes) == oracle
            if oracle:
                kept[block] = nodes
        assert list(matching._replicas) == list(kept)


class TestSessionRollback:
    def test_rejected_candidate_leaves_no_trace(self):
        topology = ClusterTopology(nodes_per_rack=3, num_racks=4)
        matching = RackMatching(topology.rack_of, retention_capacity(1))
        assert matching.add(0, (0, 3))
        assert matching.add(1, (1, 4))
        before = _matcher_state(matching)
        # Racks 0 and 1 are full at c=1; the candidate adds a new node in
        # each (2, 5), reuses a known one (0) and repeats itself (5).
        assert not matching.add(2, (2, 5, 0, 5))
        assert _matcher_state(matching) == before
        # ...and the matching still works: rack 2 is free.
        assert matching.add(2, (2, 6))
        assert len(matching._place) == 3

    def test_rejected_candidate_with_a_new_rack_forgets_the_rack(self):
        topology = ClusterTopology(nodes_per_rack=3, num_racks=4)
        # Rack 2 is outside the target racks: capacity 0.
        capacity = retention_capacity(1, target_racks=(0, 1, 3))
        matching = RackMatching(topology.rack_of, capacity)
        assert matching.add(0, (0,))
        before = _matcher_state(matching)
        assert not matching.add(1, (6,))  # rack 2 holds nothing
        assert _matcher_state(matching) == before
        assert not matching.add(1, (1, 6))  # node 1: new, then undone
        assert _matcher_state(matching) == before


class TestEndToEndEarIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_placements_identical_and_cheaper(self, seed):
        # Raises on the first accept/reject decision the from-scratch
        # reference disagrees with...
        decisions, incremental, fresh = ear_redraws_vs_fresh(
            seed, num_blocks=30, writers=40
        )
        assert len(decisions) == 30
        # ...with strictly fewer level-graph builds.
        assert (
            incremental.get("maxflow.bfs_builds")
            < fresh.get("maxflow.bfs_builds")
        )

    def test_retention_plan_still_exists(self):
        topology = ClusterTopology.large_scale()
        code = CodeParams(14, 10)
        ear = EncodingAwareReplication(topology, code, rng=random.Random(3))
        decisions = [
            ear.place_block(block_id, writer_node=0)
            for block_id in range(code.k)
        ]
        stripe = ear.store.sealed_stripes()[0]
        layout = stripe_layouts(decisions)[stripe.stripe_id]
        plan = ear_retention_plan(ear, stripe, layout)
        assert sorted(plan) == sorted(stripe.block_ids)
