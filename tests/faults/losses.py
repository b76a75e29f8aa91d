"""Permanent losses played through the chaos injector, and their cost.

The repair queue already keeps everything a loss report needs: one
unavailability window per lost block, opened at the loss and closed when
its repair finished, plus the outcome tallies and the unrecoverable
blocks.  The helpers assume the queue was fed by one loss and nothing
else.
"""

from dataclasses import dataclass

from repro.faults.chaos import ChaosEvent, ChaosInjector, ChaosSchedule
from repro.faults.repair import DECODED, REREPLICATED
from repro.sim.metrics import UNAVAILABLE


def lose(setup, queue, when, kind, target):
    """Arm one ``NODE_LOSS`` / ``RACK_LOSS`` at ``when``; run the sim after."""
    ChaosInjector(
        setup.sim, setup.network,
        ChaosSchedule([ChaosEvent(when, kind, target)]),
        repair_queue=queue,
    ).start()


@dataclass(frozen=True)
class LossReport:
    """What one loss cost to repair, read back from the queue."""

    blocks_lost: int
    decoded: int
    rereplicated: int
    unrecoverable: tuple
    repair_time: float


def loss_report(queue):
    windows = queue.metrics.windows[UNAVAILABLE]
    repair_time = 0.0
    if windows:
        repair_time = (
            max(w.end for w in windows) - min(w.start for w in windows)
        )
    return LossReport(
        blocks_lost=len(windows),
        decoded=queue.outcomes[DECODED],
        rereplicated=queue.outcomes[REREPLICATED],
        unrecoverable=tuple(queue.unrecoverable),
        repair_time=repair_time,
    )
