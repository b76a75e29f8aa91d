"""Measurement collectors for simulation experiments.

Small, dependency-free statistics helpers used by every experiment driver:
response-time distributions, throughput meters, time series (for the
"encoded stripes vs time" plots), and plain counters.

Also hosts the process-wide :class:`PerfCounters` registry that the hot
paths (Dinic's max-flow, the GF(2^8) kernels, the simulation kernel, EAR's
redraw loop) report *counted work* into.  Counted work — level-graph
builds, augmentations, GF multiplies, processed events — is deterministic
for a given seed, so ``tests/bench/test_budgets.py`` asserts on it without
wall-clock flakiness and ``benchmarks/e2e`` reports it per layer.
"""

from __future__ import annotations

import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple


class Counter:
    """A set of named additive counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, float] = {}

    def add(self, name: str, amount: float = 1) -> None:
        """Increment ``name`` by ``amount``."""
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> float:
        """Current value of ``name`` (0 when never incremented)."""
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, float]:
        """A snapshot of all counters."""
        return dict(self._counts)


class PerfCounters:
    """Process-wide additive counters for *counted work* on hot paths.

    Instrumented code calls :meth:`bump` with a dotted counter name
    (``"maxflow.bfs_builds"``, ``"gf.symbol_mults"``, ...).  Consumers take
    a :meth:`snapshot` before and after a region — or use the
    :func:`measure_ops` context manager — and read the delta.  Counts are
    pure functions of the work performed, never of the clock, so they are
    byte-reproducible across machines for a fixed seed.

    A single module-level instance, :data:`PERF`, is shared by the whole
    process; ``bump`` is a dict increment, cheap enough to leave enabled
    permanently.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        counts = self._counts
        counts[name] = counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 when never bumped)."""
        return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        """An immutable-by-copy view of every counter."""
        return dict(self._counts)

    def reset(self) -> None:
        """Zero every counter (test/bench isolation)."""
        self._counts.clear()

    @staticmethod
    def delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
        """Per-counter difference ``after - before``, dropping zero rows."""
        names = sorted(set(before) | set(after))
        out = {
            name: after.get(name, 0) - before.get(name, 0) for name in names
        }
        return {name: value for name, value in out.items() if value}


#: The process-wide counter registry used by every instrumented hot path.
PERF = PerfCounters()


class OpsDelta:
    """Mutable holder filled in when a :func:`measure_ops` block exits."""

    def __init__(self) -> None:
        self.ops: Dict[str, int] = {}

    def get(self, name: str) -> int:
        """Counted work for ``name`` inside the measured block."""
        return self.ops.get(name, 0)


@contextmanager
def measure_ops() -> Iterator[OpsDelta]:
    """Measure the counted work performed inside a ``with`` block.

    Example:
        >>> with measure_ops() as measured:
        ...     PERF.bump("example.widgets", 3)
        >>> measured.get("example.widgets")
        3
    """
    holder = OpsDelta()
    before = PERF.snapshot()
    try:
        yield holder
    finally:
        holder.ops = PerfCounters.delta(before, PERF.snapshot())


class _SampleBuffer:
    """Append-only float store backed by flat ``array('d')`` chunks.

    The hot path is a C-level ``array.append`` — no per-sample tuple or
    list-of-objects churn — and the chunking keeps growth from ever
    copying more than one bounded block.  Everything derived (sorting,
    means, percentiles) folds lazily at read time; iteration yields the
    samples in recording order.
    """

    __slots__ = ("_chunks", "_tail")

    #: Samples per sealed chunk (64 KiB of doubles).
    CHUNK = 8192

    def __init__(self) -> None:
        self._chunks: List[array] = []
        self._tail: array = array("d")

    def append(self, value: float) -> None:
        """Record one sample (O(1), no aggregation)."""
        tail = self._tail
        tail.append(value)
        if len(tail) >= self.CHUNK:
            self._chunks.append(tail)
            self._tail = array("d")

    def __len__(self) -> int:
        return len(self._chunks) * self.CHUNK + len(self._tail)

    def __iter__(self) -> Iterator[float]:
        for chunk in self._chunks:
            yield from chunk
        yield from self._tail


def _nearest_rank(ordered: List[float], p: float) -> float:
    """The ``p``-th percentile of an already-sorted sample (nearest-rank)."""
    if not ordered:
        raise ValueError("no samples recorded")
    if not 0 <= p <= 100:
        raise ValueError("percentile must lie in [0, 100]")
    rank = max(0, math.ceil(p / 100 * len(ordered)) - 1)
    return ordered[rank]


class ResponseTimeStats:
    """Collects request latencies and summarises them.

    Recording is an append into flat array chunks; means, percentiles
    and window filters fold at read time.  At 10^6+ requests per run the
    old list-of-tuples layout (one 2-tuple plus two boxed floats per
    sample) was a measurable share of the simulator's footprint.
    """

    __slots__ = ("_starts", "_latencies")

    def __init__(self) -> None:
        self._starts = _SampleBuffer()
        self._latencies = _SampleBuffer()

    def record(self, start_time: float, latency: float) -> None:
        """Record one request's start time and latency."""
        if latency < 0:
            raise ValueError("latency cannot be negative")
        self._starts.append(start_time)
        self._latencies.append(latency)

    @property
    def count(self) -> int:
        """Number of recorded requests."""
        return len(self._latencies)

    def latencies(self) -> List[float]:
        """All recorded latencies, in arrival order."""
        return list(self._latencies)

    def mean(self) -> float:
        """Mean latency.

        Raises:
            ValueError: With no samples.
        """
        count = len(self._latencies)
        if not count:
            raise ValueError("no samples recorded")
        return sum(self._latencies) / count

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile latency (nearest-rank)."""
        return _nearest_rank(sorted(self._latencies), p)

    def mean_in_window(self, start: float, end: float) -> Optional[float]:
        """Mean latency of requests that *started* inside [start, end)."""
        window = [
            lat
            for t, lat in zip(self._starts, self._latencies)
            if start <= t < end
        ]
        if not window:
            return None
        return sum(window) / len(window)

    def series(self) -> List[Tuple[float, float]]:
        """(start_time, latency) pairs in arrival order (Figure 9 style)."""
        return list(zip(self._starts, self._latencies))


class Histogram:
    """A lazily-folded sample distribution.

    ``record`` is a chunked array append; nothing is bucketed, sorted or
    averaged until :meth:`snapshot` (or one of the accessors) is called,
    so a simulation can feed it from the hot path and pay the fold cost
    once at reporting time.
    """

    __slots__ = ("_samples",)

    def __init__(self) -> None:
        self._samples = _SampleBuffer()

    def record(self, value: float) -> None:
        """Record one observation (O(1), no aggregation)."""
        self._samples.append(value)

    def __len__(self) -> int:
        return len(self._samples)

    def mean(self) -> float:
        """Mean of all observations (raises with no samples)."""
        count = len(self._samples)
        if not count:
            raise ValueError("no samples recorded")
        return sum(self._samples) / count

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile observation (nearest-rank)."""
        return _nearest_rank(sorted(self._samples), p)

    def snapshot(self) -> Dict[str, float]:
        """Fold count/mean/percentiles/extremes in one sorting pass."""
        ordered = sorted(self._samples)
        if not ordered:
            return {"count": 0.0}
        return {
            "count": float(len(ordered)),
            "mean": sum(ordered) / len(ordered),
            "p50": _nearest_rank(ordered, 50),
            "p95": _nearest_rank(ordered, 95),
            "p99": _nearest_rank(ordered, 99),
            "min": ordered[0],
            "max": ordered[-1],
        }


class ThroughputMeter:
    """Tracks completed work volume over a measured interval."""

    def __init__(self) -> None:
        self._bytes = 0.0
        self._start: Optional[float] = None
        self._end: Optional[float] = None

    def start(self, now: float) -> None:
        """Mark the start of the measured interval."""
        self._start = now

    def record(self, now: float, size: float) -> None:
        """Account ``size`` bytes completed at time ``now``."""
        if size < 0:
            raise ValueError("size cannot be negative")
        self._bytes += size
        self._end = now

    @property
    def total_bytes(self) -> float:
        """Bytes accounted so far."""
        return self._bytes

    def elapsed(self) -> float:
        """Seconds between start and the last completion."""
        if self._start is None or self._end is None:
            raise ValueError("meter never started or never recorded")
        return max(self._end - self._start, 0.0)

    def throughput(self) -> float:
        """Mean throughput in bytes/second over the measured interval.

        Raises:
            ValueError: If no time elapsed (division by zero).
        """
        elapsed = self.elapsed()
        if elapsed == 0:
            raise ValueError("no elapsed time; cannot compute throughput")
        return self._bytes / elapsed

    def throughput_mb_s(self) -> float:
        """Throughput in MB/s (the unit of Figure 8)."""
        return self.throughput() / 1e6


@dataclass
class OutageWindow:
    """One endpoint's down interval (``end`` is ``None`` while still down)."""

    target: str
    start: float
    end: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        """Length of the window, or ``None`` while the outage is open."""
        return None if self.end is None else self.end - self.start


@dataclass(frozen=True)
class DataLossEvent:
    """A block that could not be reconstructed from any source."""

    block_id: int
    time: float
    reason: str


class ResilienceMetrics:
    """Fault-pipeline accounting: MTTR, outages, retries, data loss.

    One instance is shared by the chaos injector (outage windows), the
    retry helper (retry/abort/straggler counts), the repair queue (repair
    durations, per-block unavailability windows, data-loss events) and the
    scrubber (corruption detections).  Everything is plain counters and
    lists so experiment drivers can assert on them deterministically.
    """

    def __init__(self) -> None:
        self.counters = Counter()
        self.repair_durations: List[float] = []
        self.relocation_failures: List[str] = []
        self.outages: List[OutageWindow] = []
        self.unavailability: List[OutageWindow] = []
        self.data_loss: List[DataLossEvent] = []
        self._open_outages: Dict[str, OutageWindow] = {}
        self._open_unavailability: Dict[int, OutageWindow] = {}

    # ------------------------------------------------------------------
    # Counters fed by the retry helper and the scrubber
    # ------------------------------------------------------------------
    def record_retry(self) -> None:
        """One retried attempt (after a retryable failure)."""
        self.counters.add("retries")

    def record_abort(self) -> None:
        """One attempt that ended in a transfer abort."""
        self.counters.add("aborts")

    def record_straggler(self) -> None:
        """One attempt killed by the retry policy's timeout."""
        self.counters.add("stragglers")

    def record_corruption_detected(self) -> None:
        """One corrupted replica found by the scrubber."""
        self.counters.add("corruption_detected")

    def record_corruption_injected(self) -> None:
        """One replica bit-rotted by the chaos injector."""
        self.counters.add("corruption_injected")

    def record_relocation_failure(self, reason: str) -> None:
        """One relocation attempt that failed transiently.

        The repair queue records the reason (the repr of the exception)
        so drills can assert the failure was seen rather than swallowed;
        the stripe itself is re-enqueued by the next violation scan.
        """
        self.counters.add("relocation_failures")
        self.relocation_failures.append(reason)

    # ------------------------------------------------------------------
    # Outage windows (chaos injector)
    # ------------------------------------------------------------------
    def begin_outage(self, target: str, now: float) -> None:
        """Open a down window for a node/rack label."""
        if target in self._open_outages:
            return
        window = OutageWindow(target, now)
        self._open_outages[target] = window
        self.outages.append(window)

    def end_outage(self, target: str, now: float) -> None:
        """Close a previously opened down window."""
        window = self._open_outages.pop(target, None)
        if window is not None:
            window.end = now

    # ------------------------------------------------------------------
    # Repairs and per-block unavailability (repair queue)
    # ------------------------------------------------------------------
    def record_repair(self, duration: float) -> None:
        """One completed repair's wall-clock duration."""
        if duration < 0:
            raise ValueError("repair duration cannot be negative")
        self.repair_durations.append(duration)
        self.counters.add("repairs")

    def mttr(self) -> Optional[float]:
        """Mean time to repair over all completed repairs (None when none)."""
        if not self.repair_durations:
            return None
        return sum(self.repair_durations) / len(self.repair_durations)

    def block_unavailable(self, block_id: int, now: float) -> None:
        """Open a window: the block currently has no readable copy."""
        if block_id in self._open_unavailability:
            return
        window = OutageWindow(f"block:{block_id}", now)
        self._open_unavailability[block_id] = window
        self.unavailability.append(window)

    def block_available(self, block_id: int, now: float) -> None:
        """Close a block's unavailability window (repair finished)."""
        window = self._open_unavailability.pop(block_id, None)
        if window is not None:
            window.end = now

    def record_data_loss(self, block_id: int, now: float, reason: str) -> None:
        """An unrecoverable block: fewer than k sources survive anywhere."""
        self.data_loss.append(DataLossEvent(block_id, now, reason))
        self.counters.add("data_loss")

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """A flat snapshot for tables and determinism fingerprints."""
        out = dict(sorted(self.counters.as_dict().items()))
        out["mttr"] = self.mttr() or 0.0
        out["outages"] = float(len(self.outages))
        out["unavailability_windows"] = float(len(self.unavailability))
        closed = [w.duration for w in self.unavailability if w.end is not None]
        out["unavailability_total"] = float(sum(closed)) if closed else 0.0
        return out


class TimeSeries:
    """An event-time series, e.g. cumulative encoded stripes (Figure 12).

    Observations append into flat array chunks; the pair list the plots
    consume is materialised lazily by :attr:`points`.
    """

    __slots__ = ("_times", "_values")

    def __init__(self) -> None:
        self._times = _SampleBuffer()
        self._values = _SampleBuffer()

    @property
    def points(self) -> List[Tuple[float, float]]:
        """(time, value) pairs in recording order."""
        return list(zip(self._times, self._values))

    def record(self, time: float, value: float) -> None:
        """Append one (time, value) observation."""
        self._times.append(time)
        self._values.append(value)

    def cumulative_count(self) -> List[Tuple[float, int]]:
        """(time, running count) pairs, one per recorded observation."""
        return [(t, i + 1) for i, (t, __) in enumerate(sorted(self.points))]

    def value_at(self, time: float) -> float:
        """Last recorded value at or before ``time`` (0 when none)."""
        best = 0.0
        for t, v in sorted(self.points):
            if t <= time:
                best = v
            else:
                break
        return best

    def __len__(self) -> int:
        return len(self._times)
