"""Crash-point injection primitives for the durability drills.

A :class:`CrashPoint` arms the journal to simulate a process crash at a
specific record sequence number, at one of three phases relative to the
record's write:

* ``"before"`` — the process dies before the record reaches the log:
  nothing about it is durable.
* ``"torn"`` — the process dies mid-write: a truncated half-record is
  left at the log tail (recovery must tolerate and discard it).
* ``"after"`` — the record is fully written, then the process dies
  before applying (or acknowledging) the in-memory mutation.

The chaos drill in :mod:`repro.faults.crash` derives seeded crash points
from workload traces and checks the recovery differential for each.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Valid crash phases, in log-durability order.
CRASH_PHASES = ("before", "torn", "after")


class SimulatedCrash(RuntimeError):
    """Raised by the journal when an armed crash point fires.

    Carries the crash point so drills can assert *where* the process
    died.  Nothing in the production path catches this — it unwinds the
    whole workload, exactly like a real ``kill -9`` would.
    """

    def __init__(self, point: "CrashPoint") -> None:
        super().__init__(
            f"simulated crash at seq {point.seq} (phase {point.phase!r})"
        )
        self.point = point


@dataclass(frozen=True)
class CrashPoint:
    """Crash when the journal is about to append sequence number ``seq``.

    Attributes:
        seq: The 1-based journal sequence number the crash targets.
        phase: One of :data:`CRASH_PHASES` — where relative to the write
            the process dies.
    """

    seq: int
    phase: str = "after"

    def __post_init__(self) -> None:
        if self.phase not in CRASH_PHASES:
            raise ValueError(
                f"crash phase must be one of {CRASH_PHASES}, "
                f"got {self.phase!r}"
            )
        if self.seq < 1:
            raise ValueError("crash seq is 1-based and must be positive")

    @property
    def durable_seq(self) -> int:
        """The highest sequence number durable after this crash."""
        return self.seq if self.phase == "after" else self.seq - 1
