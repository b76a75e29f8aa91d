"""CFS client operations: the replication write pipeline and block reads.

A write replicates a block along a chain (client -> first replica -> second
replica -> ...), the way HDFS daisy-chains its write pipeline.  Hops are
simulated as sequential whole-block transfers — matching the testbed's
observed ~1.4 s response time for a 64 MB block over two 1 Gb/s hops — and
each receiving DataNode flushes the block to its disk asynchronously when
disks are modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from repro.cluster.block import Block, BlockId
from repro.cluster.topology import NodeId
from repro.hdfs.namenode import NameNode
from repro.sim.engine import Simulator
from repro.sim.metrics import ResponseTimeStats
from repro.sim.netsim import Network


@dataclass(frozen=True)
class WriteResult:
    """Outcome of one block write.

    Attributes:
        block: The written block.
        node_ids: Replica chain, primary first.
        start_time: Simulation time the write began.
        response_time: Seconds until the last pipeline hop completed.
    """

    block: Block
    node_ids: Tuple[NodeId, ...]
    start_time: float
    response_time: float


class CFSClient:
    """Issues writes and reads against the simulated CFS.

    Args:
        sim: Simulation kernel.
        network: Link/disk model.
        namenode: Metadata server (holds the placement policy).
        stats: Optional response-time collector for write latencies.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        namenode: NameNode,
        stats: Optional[ResponseTimeStats] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.namenode = namenode
        self.stats = stats

    # ------------------------------------------------------------------
    def write_block(
        self,
        size: Optional[int] = None,
        writer_node: Optional[NodeId] = None,
    ) -> Generator:
        """Write one block through the replication pipeline.

        Args:
            size: Block size in bytes (NameNode default when omitted).
            writer_node: Originating endpoint.  May be a DataNode id or an
                external endpoint id from ``network.add_external``; when
                omitted the placement policy picks the primary rack freely
                and the chain starts at the primary replica (a local write).

        Yields:
            Simulation events.

        Returns:
            A :class:`WriteResult` (via the generator's return value).
        """
        start = self.sim.now
        placement_hint = writer_node if self._is_datanode(writer_node) else None
        block, decision = self.namenode.allocate_block(
            size=size, writer_node=placement_hint
        )
        chain: List[NodeId] = list(decision.node_ids)
        previous = writer_node if writer_node is not None else chain[0]
        for node in chain:
            if node != previous:
                yield from self.network.transfer(
                    previous, node, block.size, read_disk=False, write_disk=False
                )
            if self.network.disk is not None:
                # The DataNode flushes asynchronously; the pipeline moves on.
                self.network.start_disk_write(node, block.size)
            previous = node
        response = self.sim.now - start
        if self.stats is not None:
            self.stats.record(start, response)
        return WriteResult(block, tuple(chain), start, response)

    def read_block(
        self, block_id: BlockId, reader_node: NodeId
    ) -> Generator:
        """Read one block, preferring the closest replica.

        Replica preference mirrors HDFS: local copy, then same-rack copy,
        then any copy.

        Returns:
            The node the block was served from (generator return value).
        """
        block = self.namenode.block_store.block(block_id)
        replicas = self.namenode.block_locations(block_id)
        if not replicas:
            raise KeyError(f"block {block_id} has no replicas")
        source = self._closest_replica(replicas, reader_node)
        if source == reader_node:
            if self.network.disk is not None:
                yield from self.network.disk_read(source, block.size)
        else:
            yield from self.network.transfer(
                source,
                reader_node,
                block.size,
                write_disk=False,
            )
        return source

    # ------------------------------------------------------------------
    def _closest_replica(
        self, replicas: Tuple[NodeId, ...], reader_node: NodeId
    ) -> NodeId:
        if reader_node in replicas:
            return reader_node
        reader_rack = self.network.rack_of(reader_node)
        if reader_rack is not None:
            same_rack = [
                n for n in replicas if self.network.rack_of(n) == reader_rack
            ]
            if same_rack:
                return same_rack[0]
        return replicas[0]

    def _is_datanode(self, node_id: Optional[NodeId]) -> bool:
        return node_id is not None and node_id >= 0
