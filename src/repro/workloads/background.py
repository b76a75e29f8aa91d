"""Background traffic: Poisson transfer streams and constant cross-traffic.

Experiment B.2's background stream issues Poisson requests (1 request/s),
each moving an exponentially sized payload (mean 64 MB) between two nodes,
with a 1:1 cross-rack to intra-rack mix.  Experiment A.1's Iperf UDP streams
are constant-rate flows between fixed node pairs; we model them by derating
the effective bandwidth of the NICs they occupy, exactly the effect the
paper describes ("a higher UDP sending rate implies less effective network
bandwidth").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from repro.cluster.topology import ClusterTopology, NodeId
from repro.sim.engine import Simulator
from repro.sim.netsim import Network
from repro.sim.sources import exponential_sizes, poisson_arrivals
from repro.workloads.seeding import experiment_rng


class BackgroundTraffic:
    """Poisson node-to-node transfer stream (Experiment B.2).

    Args:
        sim: Simulation kernel.
        network: Link model.
        rate: Mean requests/second.
        rng: Seeded random source; defaults to a fresh generator seeded
            with the experiment seed.
        mean_size: Mean transfer size in bytes (exponentially distributed).
        cross_rack_fraction: Probability a request crosses racks (the paper
            uses a 1:1 mix, i.e. 0.5).

    Raises:
        ValueError: For a cluster the stream cannot draw a pair in: fewer
            than two nodes, or one rack with a nonzero
            ``cross_rack_fraction``.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        rate: float,
        rng: Optional[random.Random] = None,
        mean_size: float = 64 * 1024 * 1024,
        cross_rack_fraction: float = 0.5,
    ) -> None:
        if not rate > 0:
            raise ValueError("rate must be positive")
        if not 0 <= cross_rack_fraction <= 1:
            raise ValueError("cross_rack_fraction must lie in [0, 1]")
        topology = network.topology
        if topology.num_nodes < 2:
            raise ValueError("background traffic needs at least two nodes")
        if cross_rack_fraction > 0 and topology.num_racks < 2:
            raise ValueError(
                "cross-rack background traffic needs at least two racks"
            )
        self.sim = sim
        self.network = network
        self.topology = topology
        self.rate = rate
        self.rng = rng if rng is not None else experiment_rng()
        self.mean_size = mean_size
        self.cross_rack_fraction = cross_rack_fraction
        self.completed: List[Tuple[NodeId, NodeId, float]] = []
        self._sizes = exponential_sizes(self.rng, mean_size)
        self._stopped = False
        # The destinations of each kind of request, built once in node-id
        # order: per rack, the nodes outside it; per node, the other nodes
        # of its rack, or every other node when it is alone in its rack.
        rack_of = topology.rack_of
        nodes = tuple(topology.node_ids())
        self._cross_partners = {
            rack: tuple(n for n in nodes if rack_of(n) != rack)
            for rack in topology.rack_ids()
        }
        self._rack_partners = {
            src: tuple(
                n for n in topology.nodes_in_rack(rack_of(src)) if n != src
            ) or tuple(n for n in nodes if n != src)
            for src in nodes
        }

    def stop(self) -> None:
        """Stop issuing new requests (in-flight transfers complete)."""
        self._stopped = True

    def run(
        self, limit: Optional[int] = None, duration: Optional[float] = None
    ) -> Generator:
        """The arrival process (run inside ``sim.process``)."""
        start = self.sim.now
        issued = 0
        for gap in poisson_arrivals(self.rng, self.rate, limit):
            yield self.sim.timeout(gap)
            if self._stopped:
                break
            if duration is not None and self.sim.now - start >= duration:
                break
            src, dst = self._pick_pair()
            size = next(self._sizes)
            self.sim.process(self._one_transfer(src, dst, size))
            issued += 1
        return issued

    def _pick_pair(self) -> Tuple[NodeId, NodeId]:
        src = self.rng.randrange(self.topology.num_nodes)
        if self.rng.random() < self.cross_rack_fraction:
            candidates = self._cross_partners[self.topology.rack_of(src)]
        else:
            candidates = self._rack_partners[src]
        return src, self.rng.choice(candidates)

    def _one_transfer(self, src: NodeId, dst: NodeId, size: float) -> Generator:
        yield from self.network.transfer(
            src, dst, size, read_disk=False, write_disk=False
        )
        self.completed.append((src, dst, size))


@dataclass(frozen=True)
class UdpCrossTraffic:
    """Constant-rate cross-traffic between node pairs (Experiment A.1).

    The testbed groups the 12 slaves into six sender/receiver pairs and
    drives Iperf UDP at a configured rate.  ``apply`` derates the sender's
    egress and the receiver's ingress by that rate.

    Attributes:
        pairs: (sender, receiver) node pairs.
        rate: UDP sending rate in bytes/second per pair.
    """

    pairs: Tuple[Tuple[NodeId, NodeId], ...]
    rate: float

    def apply(self, network: Network) -> None:
        """Derate the NICs the UDP streams occupy.

        Raises:
            ValueError: If the rate meets or exceeds a NIC's bandwidth
                (the link would have no capacity left).
        """
        if not self.rate >= 0:
            raise ValueError("rate cannot be negative")
        if self.rate == 0:
            return
        for sender, receiver in self.pairs:
            up = network.node_up_bandwidth(sender) - self.rate
            down = network.node_down_bandwidth(receiver) - self.rate
            if not up > 0 or not down > 0:
                raise ValueError(
                    "UDP rate saturates a NIC; no bandwidth would remain"
                )
            network.set_node_bandwidth(sender, up=up)
            network.set_node_bandwidth(receiver, down=down)

    @classmethod
    def testbed_pairs(
        cls, topology: ClusterTopology, rate: float
    ) -> "UdpCrossTraffic":
        """Six disjoint pairs over the 12 testbed slaves (paper setup)."""
        nodes = list(topology.node_ids())
        if len(nodes) % 2:
            nodes = nodes[:-1]
        pairs = tuple(
            (nodes[i], nodes[i + 1]) for i in range(0, len(nodes), 2)
        )
        return cls(pairs=pairs, rate=rate)
