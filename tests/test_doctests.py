"""Run the library's docstring examples as tests.

Every ``>>>`` example in a public docstring is executable documentation;
this module keeps them honest.
"""

import doctest

import pytest

import repro
import repro.core.maxflow
import repro.erasure.codec
import repro.erasure.lrc
import repro.experiments.charts
import repro.sim.engine

MODULES = [
    repro.core.maxflow,
    repro.erasure.codec,
    repro.erasure.lrc,
    repro.experiments.charts,
    repro.sim.engine,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, tried = doctest.testmod(
        module, verbose=False, raise_on_error=False
    ).failed, doctest.testmod(module, verbose=False).attempted
    assert failures == 0, f"{failures} doctest failure(s) in {module.__name__}"


def test_package_docstring_example():
    """The quickstart in repro/__init__.py must execute as written."""
    import random

    from repro import (ClusterTopology, CodeParams,
                       EncodingAwareReplication, plan_ear_encoding)
    from repro.cluster import BlockStore

    topo = ClusterTopology.large_scale()
    code = CodeParams(14, 10)
    ear = EncodingAwareReplication(topo, code, rng=random.Random(7))

    store = BlockStore(topo)
    for _ in range(100):
        block = store.create_block(64 * 2**20)
        decision = ear.place_block(block.block_id)
        store.add_replicas(block.block_id, decision.node_ids)

    stripe = ear.store.sealed_stripes()[0]
    plan = plan_ear_encoding(topo, store, stripe, code)
    assert plan.cross_rack_downloads == 0
