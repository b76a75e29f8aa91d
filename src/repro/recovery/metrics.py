"""Recovery-path accounting: repair bandwidth, degraded reads, vulnerability.

The Rashmi et al. Facebook-cluster study found that *recovery* traffic —
not encoding traffic — dominates cross-rack network load once a cluster
runs erasure-coded storage at scale.  :class:`RecoveryMetrics` is the
single collector for that side of the system, threaded through the
repair queue, the scrubber, the chaos injector and the degraded-read
path:

* **per-rack repair bandwidth** — bytes pulled into each destination
  rack by reconstruction and re-replication;
* **repair-time distribution** — per-repair durations (count, mean,
  percentiles), beyond the single MTTR scalar of
  :class:`~repro.sim.metrics.ResilienceMetrics`;
* **degraded reads** — count, latency, and the cross-rack bytes a
  client paid to decode around a lost block;
* **window of vulnerability** — cumulative simulated time any stripe
  spent at margin 0 (one more failure loses data).

Everything is plain counters, lists and
:class:`~repro.sim.metrics.OutageWindow` objects, so experiment drivers
and fingerprints can consume it deterministically.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.metrics import PERF, Counter, OutageWindow, ResponseTimeStats


class RecoveryMetrics:
    """Collects the recovery storm engine's measurements.

    One instance is shared by every component of a drill; all methods are
    cheap enough to leave permanently enabled.  Counted events also feed
    the process-wide :data:`~repro.sim.metrics.PERF` registry under the
    ``recovery.*`` prefix so ``benchmarks/e2e`` can report them.
    """

    def __init__(self) -> None:
        self.counters = Counter()
        #: (start_time, latency) samples of reads served by inline decode.
        self.degraded_read_stats = ResponseTimeStats()
        #: (start_time, duration) samples of completed repairs.
        self.repair_time_stats = ResponseTimeStats()
        #: Reconstruction ingress per destination rack, in bytes.
        self.repair_bytes_by_rack: Dict[int, float] = {}
        self.repair_bytes = 0.0
        self.cross_rack_repair_bytes = 0.0
        self.degraded_read_bytes = 0.0
        self.cross_rack_degraded_bytes = 0.0
        #: Closed + still-open margin-0 windows, in open order.
        self.vulnerability_windows: List[OutageWindow] = []
        self._open_vulnerability: Dict[str, OutageWindow] = {}

    # ------------------------------------------------------------------
    # Degraded reads (client path)
    # ------------------------------------------------------------------
    def record_degraded_read(
        self,
        start_time: float,
        latency: float,
        bytes_read: float,
        cross_rack_bytes: float,
    ) -> None:
        """One read served by fetching k survivors and decoding inline."""
        self.counters.add("degraded_reads")
        self.degraded_read_stats.record(start_time, latency)
        self.degraded_read_bytes += bytes_read
        self.cross_rack_degraded_bytes += cross_rack_bytes
        PERF.bump("recovery.degraded_reads")

    def record_escalation(self) -> None:
        """One degraded read that fell back to repair-queue escalation."""
        self.counters.add("escalations")
        PERF.bump("recovery.escalations")

    # ------------------------------------------------------------------
    # Repairs (repair queue)
    # ------------------------------------------------------------------
    def record_repair(self, start_time: float, duration: float) -> None:
        """One completed repair's start time and duration."""
        self.counters.add("repairs")
        self.repair_time_stats.record(start_time, duration)
        PERF.bump("recovery.repairs")

    def record_repair_traffic(
        self,
        dest_rack: Optional[int],
        bytes_read: float,
        cross_rack_bytes: float,
    ) -> None:
        """The reconstruction traffic of one successful repair attempt.

        Recorded separately from :meth:`record_repair` because traffic is
        known at the attempt that succeeds while the duration spans every
        retry of the repair.
        """
        self.repair_bytes += bytes_read
        self.cross_rack_repair_bytes += cross_rack_bytes
        if dest_rack is not None and bytes_read:
            self.repair_bytes_by_rack[dest_rack] = (
                self.repair_bytes_by_rack.get(dest_rack, 0.0) + bytes_read
            )

    def repair_time_distribution(self) -> Dict[str, float]:
        """Count/mean/median/p95/max of the repair durations seen so far."""
        stats = self.repair_time_stats
        if stats.count == 0:
            return {"count": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                    "max": 0.0}
        return {
            "count": float(stats.count),
            "mean": stats.mean(),
            "p50": stats.percentile(50),
            "p95": stats.percentile(95),
            "max": max(stats.latencies()),
        }

    # ------------------------------------------------------------------
    # Window of vulnerability (margin 0: one more failure loses data)
    # ------------------------------------------------------------------
    def begin_vulnerability(self, key: str, now: float) -> None:
        """Open a margin-0 window for a stripe/block label.  Idempotent."""
        if key in self._open_vulnerability:
            return
        window = OutageWindow(key, now)
        self._open_vulnerability[key] = window
        self.vulnerability_windows.append(window)
        self.counters.add("vulnerability_windows")
        PERF.bump("recovery.vulnerability_windows")

    def end_vulnerability(self, key: str, now: float) -> None:
        """Close a margin-0 window (a repair restored slack).  Idempotent."""
        window = self._open_vulnerability.pop(key, None)
        if window is not None:
            window.end = now

    def time_at_margin_zero(self, now: Optional[float] = None) -> float:
        """Total simulated time spent at margin 0.

        Still-open windows count up to ``now`` when given (a drill's end
        time), and are excluded otherwise.
        """
        total = 0.0
        for window in self.vulnerability_windows:
            if window.end is not None:
                total += window.end - window.start
            elif now is not None:
                total += max(0.0, now - window.start)
        return total

    # ------------------------------------------------------------------
    # Storm bookkeeping (chaos injector, scrubber)
    # ------------------------------------------------------------------
    def record_storm_event(self, kind: str) -> None:
        """One chaos event fired during a recovery storm."""
        self.counters.add(f"storm_{kind}")

    def record_scrub_detection(self) -> None:
        """One corrupted replica surfaced by the scrubber."""
        self.counters.add("scrub_detections")

    # ------------------------------------------------------------------
    def per_rack_repair_bandwidth(
        self, elapsed: float
    ) -> Dict[int, float]:
        """Mean repair ingress per rack in bytes/second over ``elapsed``."""
        if elapsed <= 0:
            raise ValueError("elapsed must be positive")
        return {
            rack: volume / elapsed
            for rack, volume in sorted(self.repair_bytes_by_rack.items())
        }

    def summary(self, now: Optional[float] = None) -> Dict[str, float]:
        """A flat, deterministic snapshot for tables and fingerprints."""
        out = dict(sorted(self.counters.as_dict().items()))
        distribution = self.repair_time_distribution()
        for key in ("count", "mean", "p50", "p95", "max"):
            out[f"repair_time_{key}"] = distribution[key]
        out["repair_bytes"] = self.repair_bytes
        out["cross_rack_repair_bytes"] = self.cross_rack_repair_bytes
        out["degraded_read_bytes"] = self.degraded_read_bytes
        out["cross_rack_degraded_bytes"] = self.cross_rack_degraded_bytes
        if self.degraded_read_stats.count:
            out["degraded_read_mean_latency"] = (
                self.degraded_read_stats.mean()
            )
        else:
            out["degraded_read_mean_latency"] = 0.0
        out["racks_receiving_repairs"] = float(
            len(self.repair_bytes_by_rack)
        )
        out["time_at_margin_zero"] = self.time_at_margin_zero(now)
        return out
