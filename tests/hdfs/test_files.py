"""File namespace and whole-file I/O, including inter-file encoding."""

import random

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.ear import EncodingAwareReplication
from repro.erasure.codec import CodeParams
from repro.hdfs.client import CFSClient
from repro.hdfs.files import (
    DuplicateFileError,
    FileNamespace,
    read_file,
    write_file,
)
from repro.hdfs.namenode import NameNode
from repro.sim.engine import Simulator
from repro.sim.netsim import Network

CODE = CodeParams(6, 4)


def build(seed=1, block_size=1000):
    topo = ClusterTopology(
        nodes_per_rack=3, num_racks=8,
        intra_rack_bandwidth=1e6, cross_rack_bandwidth=1e6,
    )
    sim = Simulator()
    net = Network(sim, topo)
    policy = EncodingAwareReplication(topo, CODE, rng=random.Random(seed))
    nn = NameNode(topo, policy, block_size=block_size)
    client = CFSClient(sim, net, nn)
    return sim, nn, client, FileNamespace()


class TestNamespace:
    def test_create_and_lookup(self):
        ns = FileNamespace()
        ns.create("/a/b")
        assert ns.exists("/a/b")
        assert ns.lookup("/a/b").num_blocks == 0
        assert len(ns) == 1

    def test_duplicate_name_rejected(self):
        ns = FileNamespace()
        ns.create("/x")
        with pytest.raises(DuplicateFileError):
            ns.create("/x")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            FileNamespace().create("")

    def test_append_and_ownership(self):
        ns = FileNamespace()
        ns.create("/f")
        ns.append_block("/f", 10, 500)
        ns.append_block("/f", 11, 300)
        meta = ns.lookup("/f")
        assert meta.block_ids == [10, 11]
        assert meta.size == 800
        assert ns.owner_of(10) == "/f"
        assert ns.owner_of(99) is None

    def test_block_owned_once(self):
        ns = FileNamespace()
        ns.create("/f")
        ns.create("/g")
        ns.append_block("/f", 10, 1)
        with pytest.raises(ValueError):
            ns.append_block("/g", 10, 1)

    def test_unknown_file(self):
        with pytest.raises(KeyError):
            FileNamespace().lookup("/missing")

    def test_delete(self):
        ns = FileNamespace()
        ns.create("/f")
        ns.append_block("/f", 5, 100)
        ns.delete("/f")
        assert not ns.exists("/f")
        assert ns.owner_of(5) is None


class TestFileIO:
    def test_write_splits_into_blocks(self):
        sim, nn, client, ns = build(block_size=1000)
        metas = []

        def scenario():
            meta = yield from write_file(client, ns, "/data", 2500)
            metas.append(meta)

        sim.process(scenario())
        sim.run()
        meta = metas[0]
        assert meta.num_blocks == 3
        assert meta.size == 2500
        sizes = [nn.block_store.block(b).size for b in meta.block_ids]
        assert sizes == [1000, 1000, 500]

    def test_read_whole_file(self):
        sim, nn, client, ns = build()
        sources_box = []

        def scenario():
            yield from write_file(client, ns, "/data", 3000)
            sources = yield from read_file(client, ns, "/data", 0)
            sources_box.extend(sources)

        sim.process(scenario())
        sim.run()
        assert len(sources_box) == 3

    def test_invalid_size(self):
        sim, nn, client, ns = build()
        with pytest.raises(ValueError):
            list(write_file(client, ns, "/bad", 0))

    def test_inter_file_encoding(self):
        """Blocks of different files share stripes (Section IV-A)."""
        sim, nn, client, ns = build(block_size=1000)

        def scenario():
            for index in range(8):
                yield from write_file(
                    client, ns, f"/file{index}", 1000, writer_node=0
                )

        sim.process(scenario())
        sim.run()
        sealed = nn.sealed_stripes()
        assert sealed, "k=4 blocks from one writer rack must seal a stripe"
        owners = {
            ns.owner_of(block_id) for block_id in sealed[0].block_ids
        }
        assert len(owners) > 1  # the stripe spans multiple files
