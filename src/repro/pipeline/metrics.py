"""Metrics for the pipelined transition strategy.

:class:`PipelineMetrics` tracks what the head-to-heads compare — hop
traffic split into intra- and cross-rack bytes, re-plans forced by
failures, fallbacks to the download-and-encode path — plus the per-node
GF attribution: each hop's fused multiply-XOR work (``gf.kernel_calls`` /
``gf.symbol_mults``) is billed to the node that performed the fold, not to
a single encoder node.  Integer totals are
mirrored into the process-wide :data:`~repro.sim.metrics.PERF` registry
under ``pipeline.*``.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.topology import NodeId
from repro.sim.metrics import PERF, OpsDelta


class PipelineMetrics:
    """Counters for pipelined encodes (one instance per cluster)."""

    def __init__(self) -> None:
        self.stripes_pipelined = 0
        self.stripes_fallback = 0
        self.replans = 0
        self.hop_transfers = 0
        self.hop_bytes = 0.0
        self.cross_rack_hop_bytes = 0.0
        self.delivery_transfers = 0
        self.delivery_bytes = 0.0
        self.cross_rack_delivery_bytes = 0.0
        #: node -> {"gf.kernel_calls": ..., "gf.symbol_mults": ...}
        self.gf_by_node: Dict[NodeId, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    def record_stripe(self) -> None:
        """One stripe committed through the pipeline path."""
        self.stripes_pipelined += 1
        PERF.bump("pipeline.stripes")

    def record_fallback(self) -> None:
        """One stripe fell back to download-and-encode."""
        self.stripes_fallback += 1
        PERF.bump("pipeline.fallbacks")

    def record_replan(self) -> None:
        """A retry attempt routed the pipeline differently."""
        self.replans += 1
        PERF.bump("pipeline.replans")

    def record_hop_transfer(self, size: float, cross_rack: bool) -> None:
        """One partial-combination chunk moved hop-to-hop."""
        self.hop_transfers += 1
        self.hop_bytes += size
        if cross_rack:
            self.cross_rack_hop_bytes += size
        PERF.bump("pipeline.hop_transfers")

    def record_delivery(self, size: float, cross_rack: bool) -> None:
        """One parity chunk delivered from the tail to its node."""
        self.delivery_transfers += 1
        self.delivery_bytes += size
        if cross_rack:
            self.cross_rack_delivery_bytes += size
        PERF.bump("pipeline.delivery_transfers")

    def record_hop_gf(self, node: NodeId, ops: OpsDelta) -> None:
        """Bill one hop's GF fold to the node that performed it."""
        bucket = self.gf_by_node.setdefault(
            node, {"gf.kernel_calls": 0, "gf.symbol_mults": 0}
        )
        bucket["gf.kernel_calls"] += ops.get("gf.kernel_calls")
        bucket["gf.symbol_mults"] += ops.get("gf.symbol_mults")

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Flat printable snapshot (keys sorted for determinism)."""
        out: Dict[str, object] = {
            "cross_rack_delivery_bytes": self.cross_rack_delivery_bytes,
            "cross_rack_hop_bytes": self.cross_rack_hop_bytes,
            "delivery_bytes": self.delivery_bytes,
            "delivery_transfers": self.delivery_transfers,
            "hop_bytes": self.hop_bytes,
            "hop_transfers": self.hop_transfers,
            "replans": self.replans,
            "stripes_fallback": self.stripes_fallback,
            "stripes_pipelined": self.stripes_pipelined,
        }
        out["gf_nodes_billed"] = len(self.gf_by_node)
        out["gf_kernel_calls"] = sum(
            bucket["gf.kernel_calls"]
            for __, bucket in sorted(self.gf_by_node.items())
        )
        return out
