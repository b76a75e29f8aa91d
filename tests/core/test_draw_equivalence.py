"""The table-driven placement draws against the list-rebuilding reference.

Every helper must return the same nodes (or raise the same error) and
leave the policy's rng in the state the reference leaves its own in, on
homogeneous and heterogeneous clusters, for every scheme, and with
``exclude`` given as a list, a set or a generator.  Rack sizes run from 1
to 40, so a multi-copy group exercises both algorithms of
``random.sample`` (it switches above 21 nodes).
"""

import random

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.policy import PlacementError, ReplicationScheme
from repro.core.random_replication import RandomReplication
from tests.core import reference_draws

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - image without hypothesis
    pytest.skip("hypothesis is not installed", allow_module_level=True)

SCHEMES = [(3, 2), (3, 3), (4, 2), (1, 1)]

EXCLUDE_FORMS = {
    "list": list,
    "set": set,
    "generator": lambda racks: (rack for rack in racks),
}


def outcome(call):
    """``call()``'s result, or the type of the placement error it raised."""
    try:
        return call()
    except PlacementError:
        return PlacementError


ops = st.one_of(
    st.tuples(st.just("layout"), st.integers(0, 7)),
    st.tuples(
        st.just("rack"),
        st.lists(st.integers(0, 7), max_size=4),
        st.sampled_from(sorted(EXCLUDE_FORMS)),
        st.integers(1, 4),
    ),
    st.tuples(st.just("nodes"), st.integers(0, 7), st.integers(1, 3)),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    sizes=st.lists(st.integers(1, 40), min_size=3, max_size=6),
    scheme=st.sampled_from(SCHEMES),
    seed=st.integers(0, 2**32 - 1),
    script=st.lists(ops, min_size=1, max_size=25),
)
def test_draws_match_the_reference(sizes, scheme, seed, script):
    topology = ClusterTopology(nodes_per_rack=sizes)
    scheme = ReplicationScheme(*scheme)
    policy = RandomReplication(topology, scheme=scheme, rng=random.Random(seed))
    rng = random.Random(seed)
    for op in script:
        rack = op[1] % topology.num_racks if op[0] != "rack" else None
        if op[0] == "layout":
            got = outcome(lambda: policy._draw_layout(rack))
            want = outcome(
                lambda: reference_draws.draw_layout(topology, scheme, rng, rack)
            )
        elif op[0] == "rack":
            __, exclude, form, min_nodes = op
            got = outcome(lambda: policy._random_rack(
                EXCLUDE_FORMS[form](exclude), min_nodes
            ))
            want = outcome(lambda: reference_draws.random_rack(
                topology, rng, EXCLUDE_FORMS[form](exclude), min_nodes
            ))
        else:
            count = op[2]
            got = outcome(lambda: policy._random_nodes_in_rack(rack, count))
            want = outcome(lambda: reference_draws.random_nodes_in_rack(
                topology, rng, rack, count
            ))
        assert got == want, op
        assert policy.rng.getstate() == rng.getstate(), op


@pytest.mark.parametrize("rack_size", range(1, 41))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_whole_policies_match_the_reference(rack_size, scheme):
    # RR's place_block is a rack draw and a layout draw per block.
    topology = ClusterTopology(nodes_per_rack=rack_size, num_racks=4)
    scheme = ReplicationScheme(*scheme)
    if rack_size < max(scheme.rack_group_sizes()):
        return
    policy = RandomReplication(topology, scheme=scheme, rng=random.Random(3))
    rng = random.Random(3)
    for block_id in range(30):
        first = reference_draws.random_rack(topology, rng)
        want = reference_draws.draw_layout(topology, scheme, rng, first)
        assert list(policy.place_block(block_id).node_ids) == want
    assert policy.rng.getstate() == rng.getstate()
