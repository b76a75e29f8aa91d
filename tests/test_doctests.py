"""Run the library's docstring examples as tests.

Every ``>>>`` example in a public docstring is executable documentation;
this module keeps them honest.  Every module under ``src/repro`` is
walked (as ``tests/test_determinism.py`` walks them), so a new module's
examples run without being listed here.
"""

import doctest
import importlib
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"


def _module_name(path):
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


#: Every importable module of the package; ``__main__`` runs the CLI on
#: import and holds no examples.
MODULES = sorted(
    _module_name(path)
    for path in PACKAGE.rglob("*.py")
    if path.name != "__main__.py"
)


def test_the_whole_package_is_walked():
    assert len(MODULES) > 80
    assert {"repro.core.matching", "repro.sim.engine"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    results = doctest.testmod(importlib.import_module(name), verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {name}"


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
