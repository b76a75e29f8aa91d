"""Golden identity of transfer aborts, interrupts and disk holds.

A transfer's abort and interrupt paths decide *where in the same instant*
its links come free, so they fix the ``(time, seq)`` of every later grant.
Each case below races ``fail_endpoint`` or ``Process.interrupt`` against
one transfer (the *victim*, 0 -> 2) queued behind another (the *holder*,
0 -> 1; both 1 s at 100 B/s), at a chosen point of the victim's life:

* before its grant (parked); at the grant's instant, in the callback that
  granted it (``grant_pushed``) and one or two zero-delay steps later
  (``grant_processed``, ``relay_processed``: the names of the points the
  cases were first written against, when a grant and each timeout were
  relayed through a hop of their own); mid-hold; and at its exact end
  time, before and after its timeout is processed;
* waited on inline (``yield from network.transfer``), started
  (``download_star``'s fan-out) or holding disks as well as links;
* plus a ``with_retries`` straggler killed mid-transfer, interrupts that
  must release or withdraw the victim's links, and disk holds (inline
  reads, a client's asynchronous replica flushes).

Per case the record is every waiter's outcome and sim time (hex), every
kill (with its aborted count) and interrupt with the arbiter's held-key
count and ``queue_length`` right after it, ``Network.stats``, the
arbiter's ``held_keys`` and ``queue_length`` once the run drains, and the
processed ``sim.events``.  The values must not be re-recorded to make a
change pass: a moved value means a same-time event changed order.  They
were recorded on the generator-per-transfer engine and re-recorded once,
when a link hold became one kernel event: every count fell, and a kill
or interrupt landing after the victim's timeout was processed now finds
it complete, as the hold ends in that callback instead of a relay after.
"""

import random
from types import SimpleNamespace

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.policy import ReplicationScheme
from repro.erasure.codec import CodeParams
from repro.experiments.runner import build_cluster
from repro.faults.retry import RetryExhausted, RetryPolicy, with_retries
from repro.hdfs.encoder import download_star
from repro.sim.engine import Interrupt, Simulator
from repro.sim.metrics import measure_ops
from repro.sim.netsim import DiskModel, Network, TransferAborted

TOPO = ClusterTopology(
    nodes_per_rack=2, num_racks=3,
    intra_rack_bandwidth=100.0, cross_rack_bandwidth=100.0,
)
#: Twice the link speed: disks are held but never the bottleneck.
DISK = DiskModel(read_bandwidth=200.0, write_bandwidth=200.0)
#: ``download_star`` reads block sizes from a store; here a block's id is
#: its size.
SIZED = SimpleNamespace(block=lambda size: SimpleNamespace(size=size))


class Race:
    """One scenario: a network, its waiters' outcomes and its kills."""

    def __init__(self, disk=None):
        self.sim = Simulator()
        self.network = Network(self.sim, TOPO, disk)
        self.outcomes = []
        self.strikes = []
        self.waiters = {}

    def note(self, label, outcome):
        self.outcomes.append((label, outcome, self.sim.now.hex()))

    def kill(self, node):
        aborted = self.network.fail_endpoint(node)
        self.strike(f"kill {node}: {aborted} aborted")

    def interrupt(self, label):
        self.waiters[label].interrupt("test")
        self.strike(f"interrupt {label}")

    def strike(self, what):
        """Log a kill or interrupt with the arbiter's state right after."""
        links = self.network.links
        self.strikes.append((
            what, self.sim.now.hex(), len(links.held_keys),
            links.queue_length,
        ))

    def hold(self, label, kind, src, dst, size, delay=0.0, then=None):
        """Wait on one transfer (or disk hold) in a process of its own.

        ``then(race)`` is a generator the waiter runs right after a
        successful hold, in the same callback that resumed it.
        """
        network = self.network

        def waiter():
            if delay:
                yield self.sim.timeout(delay)
            try:
                if kind == "inline":
                    yield from network.transfer(src, dst, size)
                elif kind == "started":
                    yield from download_star(network, SIZED, [(size, src)], dst)
                elif kind == "read":
                    yield from network.disk_read(src, size)
                else:
                    yield from network.disk_write(src, size)
            except TransferAborted as exc:
                self.note(label, f"aborted by {exc.endpoint}")
                return
            except Interrupt:
                self.note(label, "interrupted")
                return
            self.note(label, "ok")
            if then is not None:
                yield from then(self)

        self.waiters[label] = self.sim.process(waiter())
        return self.waiters[label]

    def at(self, when, action):
        """Run ``action(race)`` at sim time ``when`` (scheduled now)."""

        def timer():
            yield self.sim.timeout(when)
            action(self)

        self.sim.process(timer())

    def digest(self):
        with measure_ops() as measured:
            self.sim.run()
        stats = self.network.stats
        links = self.network.links
        return (
            tuple(self.outcomes),
            tuple(self.strikes),
            (
                stats.transfers, stats.bytes_total.hex(),
                stats.cross_rack_transfers, stats.bytes_cross_rack.hex(),
                stats.aborted,
            ),
            tuple(sorted(links.held_keys)),
            links.queue_length,
            measured.get("sim.events"),
        )


# ----------------------------------------------------------------------
# Continuations: what the holder's (or victim's) waiter does in place
# ----------------------------------------------------------------------
def kill_victim_dst(race):
    race.kill(2)


def zero_then(steps, action):
    """Yield ``steps`` zero-delay timeouts, then run ``action`` (at once
    when ``steps`` is 0)."""

    def then(race):
        for __ in range(steps):
            yield race.sim.timeout(0)
        action(race)

    return then


def zero_then_wait(delay, action):
    """Two zero-delay timeouts, a wait of ``delay`` scheduled after the
    victim's timeout, then ``action``."""

    def then(race):
        yield race.sim.timeout(0)
        yield race.sim.timeout(0)
        yield race.sim.timeout(delay)
        action(race)

    return then


def interrupt_victim(race):
    race.interrupt("victim")


# ----------------------------------------------------------------------
# Abort races: the victim's destination dies at one point of its life
# ----------------------------------------------------------------------
#: point -> (holder continuation, victim continuation, timed kill)
ABORT_POINTS = {
    "before_grant": (None, None, 0.5),
    "grant_pushed": (zero_then(0, kill_victim_dst), None, None),
    "grant_processed": (zero_then(1, kill_victim_dst), None, None),
    "relay_processed": (zero_then(2, kill_victim_dst), None, None),
    "mid_hold": (None, None, 1.5),
    "end_before_timeout": (None, None, 2.0),
    "end_after_timeout": (zero_then_wait(1.0, kill_victim_dst), None, None),
    "after_end": (None, zero_then(0, kill_victim_dst), None),
}

#: victim kind -> (waiter kind, disk model)
VICTIMS = {
    "inline": ("inline", None),
    "started": ("started", None),
    "inline_disk": ("inline", DISK),
    "started_disk": ("started", DISK),
}


def abort_race(point, victim):
    holder_then, victim_then, killed_at = ABORT_POINTS[point]
    kind, disk = VICTIMS[victim]
    race = Race(disk)
    if killed_at is not None:
        race.at(killed_at, lambda r: r.kill(2))
    race.hold("holder", "inline", 0, 1, 100, then=holder_then)
    race.hold("victim", kind, 0, 2, 100, then=victim_then)
    return race.digest()


# ----------------------------------------------------------------------
# Interrupts: the victim's waiter is interrupted instead
# ----------------------------------------------------------------------
def interrupt_race(point, kind):
    race = Race()
    holder_then = None
    if point == "parked":
        race.at(0.5, interrupt_victim)
    elif point == "grant_pushed":
        holder_then = zero_then(0, interrupt_victim)
    elif point == "grant_processed":
        holder_then = zero_then(1, interrupt_victim)
    elif point == "mid_hold":
        race.at(1.5, interrupt_victim)
    elif point == "end_before_timeout":
        race.at(2.0, interrupt_victim)
    else:  # end_after_timeout
        holder_then = zero_then_wait(1.0, interrupt_victim)
    race.hold("holder", "inline", 0, 1, 100, then=holder_then)
    race.hold("victim", kind, 0, 2, 100)
    # Queued behind the victim on node 0's egress: granted when the
    # victim's links come free, whenever that is.
    race.hold("next", "inline", 0, 3, 100, delay=0.25)
    return race.digest()


def straggler():
    """A retried attempt overruns its timeout mid-transfer, twice."""
    race = Race()
    policy = RetryPolicy(max_attempts=2, base_delay=1.0, jitter=0.0,
                         timeout=3.0)

    def attempt(index):
        yield from race.network.transfer(0, 1, 1000)  # 10 s
        return index

    def retried():
        try:
            yield from with_retries(race.sim, attempt, policy,
                                    random.Random(0))
        except RetryExhausted:
            race.note("straggler", "exhausted")

    race.sim.process(retried())
    # Queued behind each attempt on node 1's ingress.
    race.hold("bystander", "inline", 2, 1, 100, delay=0.5)
    race.hold("late", "inline", 3, 1, 100, delay=3.5)
    return race.digest()


# ----------------------------------------------------------------------
# Disk holds
# ----------------------------------------------------------------------
def disk_holds(case):
    race = Race(DISK)
    if case == "read_vs_transfer":
        # A disk read holds node 0's disk; a disk-backed transfer queues
        # behind it and is aborted there, the read is not abortable.
        race.hold("read", "read", 0, None, 100)
        race.hold("victim", "inline", 0, 2, 100)
        race.at(0.25, lambda r: r.kill(0))
    elif case == "interrupted_read":
        race.hold("read", "read", 0, None, 100)
        race.hold("write", "write", 0, None, 50, delay=0.1)
        race.at(0.25, lambda r: r.interrupt("read"))
    else:  # noop: nothing to hold, inline and started
        race = Race()
        race.hold("inline_noop", "inline", 1, 1, 100)
        race.hold("started_noop", "started", 1, 1, 100)
    return race.digest()


def client_flushes():
    """A replicated write: each replica's disk flush is a started hold."""
    setup = build_cluster(
        "rr", TOPO, CodeParams(3, 2), ReplicationScheme(3, 2), seed=3,
        disk=DISK, block_size=100,
    )
    race = Race()
    race.sim, race.network = setup.sim, setup.network

    def writer():
        for __ in range(3):
            result = yield from setup.client.write_block(writer_node=0)
            race.note("write", repr(result.node_ids))

    race.sim.process(writer())
    race.hold("read", "read", 4, None, 100, delay=0.25)
    return race.digest()


# ----------------------------------------------------------------------
# Recorded values
# ----------------------------------------------------------------------
#: case -> (outcomes, strikes, Network.stats, held keys, queue length,
#: sim.events)
GOLDEN = {
    ("abort", "after_end", "inline"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "ok", "0x1.0000000000000p+1")),
        (("kill 2: 0 aborted", "0x1.0000000000000p+1", 0, 0),),
        (2, "0x1.9000000000000p+7", 1, "0x1.9000000000000p+6", 0),
        (), 0, 6,
    ),
    ("abort", "before_grant", "inline"): (
        (("victim", "aborted by 2", "0x1.0000000000000p-1"),
         ("holder", "ok", "0x1.0000000000000p+0")),
        (("kill 2: 1 aborted", "0x1.0000000000000p-1", 2, 1),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 9,
    ),
    ("abort", "end_after_timeout", "inline"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "ok", "0x1.0000000000000p+1")),
        (("kill 2: 0 aborted", "0x1.0000000000000p+1", 0, 0),),
        (2, "0x1.9000000000000p+7", 1, "0x1.9000000000000p+6", 0),
        (), 0, 9,
    ),
    ("abort", "end_before_timeout", "inline"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "aborted by 2", "0x1.0000000000000p+1")),
        (("kill 2: 1 aborted", "0x1.0000000000000p+1", 4, 0),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 10,
    ),
    ("abort", "grant_processed", "inline"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "aborted by 2", "0x1.0000000000000p+0")),
        (("kill 2: 1 aborted", "0x1.0000000000000p+0", 4, 0),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 8,
    ),
    ("abort", "grant_pushed", "inline"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "aborted by 2", "0x1.0000000000000p+0")),
        (("kill 2: 1 aborted", "0x1.0000000000000p+0", 4, 0),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 7,
    ),
    ("abort", "mid_hold", "inline"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "aborted by 2", "0x1.8000000000000p+0")),
        (("kill 2: 1 aborted", "0x1.8000000000000p+0", 4, 0),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 10,
    ),
    ("abort", "relay_processed", "inline"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "aborted by 2", "0x1.0000000000000p+0")),
        (("kill 2: 1 aborted", "0x1.0000000000000p+0", 4, 0),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 9,
    ),
    ("abort", "after_end", "inline_disk"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "ok", "0x1.0000000000000p+1")),
        (("kill 2: 0 aborted", "0x1.0000000000000p+1", 0, 0),),
        (2, "0x1.9000000000000p+7", 1, "0x1.9000000000000p+6", 0),
        (), 0, 6,
    ),
    ("abort", "before_grant", "inline_disk"): (
        (("victim", "aborted by 2", "0x1.0000000000000p-1"),
         ("holder", "ok", "0x1.0000000000000p+0")),
        (("kill 2: 1 aborted", "0x1.0000000000000p-1", 4, 1),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 9,
    ),
    ("abort", "end_after_timeout", "inline_disk"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "ok", "0x1.0000000000000p+1")),
        (("kill 2: 0 aborted", "0x1.0000000000000p+1", 0, 0),),
        (2, "0x1.9000000000000p+7", 1, "0x1.9000000000000p+6", 0),
        (), 0, 9,
    ),
    ("abort", "end_before_timeout", "inline_disk"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "aborted by 2", "0x1.0000000000000p+1")),
        (("kill 2: 1 aborted", "0x1.0000000000000p+1", 6, 0),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 10,
    ),
    ("abort", "grant_processed", "inline_disk"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "aborted by 2", "0x1.0000000000000p+0")),
        (("kill 2: 1 aborted", "0x1.0000000000000p+0", 6, 0),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 8,
    ),
    ("abort", "grant_pushed", "inline_disk"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "aborted by 2", "0x1.0000000000000p+0")),
        (("kill 2: 1 aborted", "0x1.0000000000000p+0", 6, 0),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 7,
    ),
    ("abort", "mid_hold", "inline_disk"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "aborted by 2", "0x1.8000000000000p+0")),
        (("kill 2: 1 aborted", "0x1.8000000000000p+0", 6, 0),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 10,
    ),
    ("abort", "relay_processed", "inline_disk"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "aborted by 2", "0x1.0000000000000p+0")),
        (("kill 2: 1 aborted", "0x1.0000000000000p+0", 6, 0),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 9,
    ),
    ("abort", "after_end", "started"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "ok", "0x1.0000000000000p+1")),
        (("kill 2: 0 aborted", "0x1.0000000000000p+1", 0, 0),),
        (2, "0x1.9000000000000p+7", 1, "0x1.9000000000000p+6", 0),
        (), 0, 7,
    ),
    ("abort", "before_grant", "started"): (
        (("victim", "aborted by 2", "0x1.0000000000000p-1"),
         ("holder", "ok", "0x1.0000000000000p+0")),
        (("kill 2: 1 aborted", "0x1.0000000000000p-1", 2, 1),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 11,
    ),
    ("abort", "end_after_timeout", "started"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "ok", "0x1.0000000000000p+1")),
        (("kill 2: 0 aborted", "0x1.0000000000000p+1", 0, 0),),
        (2, "0x1.9000000000000p+7", 1, "0x1.9000000000000p+6", 0),
        (), 0, 10,
    ),
    ("abort", "end_before_timeout", "started"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "aborted by 2", "0x1.0000000000000p+1")),
        (("kill 2: 1 aborted", "0x1.0000000000000p+1", 4, 0),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 12,
    ),
    ("abort", "grant_processed", "started"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "aborted by 2", "0x1.0000000000000p+0")),
        (("kill 2: 1 aborted", "0x1.0000000000000p+0", 4, 0),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 10,
    ),
    ("abort", "grant_pushed", "started"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "aborted by 2", "0x1.0000000000000p+0")),
        (("kill 2: 1 aborted", "0x1.0000000000000p+0", 4, 0),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 9,
    ),
    ("abort", "mid_hold", "started"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "aborted by 2", "0x1.8000000000000p+0")),
        (("kill 2: 1 aborted", "0x1.8000000000000p+0", 4, 0),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 12,
    ),
    ("abort", "relay_processed", "started"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "aborted by 2", "0x1.0000000000000p+0")),
        (("kill 2: 1 aborted", "0x1.0000000000000p+0", 4, 0),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 11,
    ),
    ("abort", "after_end", "started_disk"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "ok", "0x1.0000000000000p+1")),
        (("kill 2: 0 aborted", "0x1.0000000000000p+1", 0, 0),),
        (2, "0x1.9000000000000p+7", 1, "0x1.9000000000000p+6", 0),
        (), 0, 7,
    ),
    ("abort", "before_grant", "started_disk"): (
        (("victim", "aborted by 2", "0x1.0000000000000p-1"),
         ("holder", "ok", "0x1.0000000000000p+0")),
        (("kill 2: 1 aborted", "0x1.0000000000000p-1", 4, 1),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 11,
    ),
    ("abort", "end_after_timeout", "started_disk"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "ok", "0x1.0000000000000p+1")),
        (("kill 2: 0 aborted", "0x1.0000000000000p+1", 0, 0),),
        (2, "0x1.9000000000000p+7", 1, "0x1.9000000000000p+6", 0),
        (), 0, 10,
    ),
    ("abort", "end_before_timeout", "started_disk"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "aborted by 2", "0x1.0000000000000p+1")),
        (("kill 2: 1 aborted", "0x1.0000000000000p+1", 5, 0),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 12,
    ),
    ("abort", "grant_processed", "started_disk"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "aborted by 2", "0x1.0000000000000p+0")),
        (("kill 2: 1 aborted", "0x1.0000000000000p+0", 5, 0),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 10,
    ),
    ("abort", "grant_pushed", "started_disk"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "aborted by 2", "0x1.0000000000000p+0")),
        (("kill 2: 1 aborted", "0x1.0000000000000p+0", 5, 0),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 9,
    ),
    ("abort", "mid_hold", "started_disk"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "aborted by 2", "0x1.8000000000000p+0")),
        (("kill 2: 1 aborted", "0x1.8000000000000p+0", 5, 0),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 12,
    ),
    ("abort", "relay_processed", "started_disk"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "aborted by 2", "0x1.0000000000000p+0")),
        (("kill 2: 1 aborted", "0x1.0000000000000p+0", 5, 0),),
        (1, "0x1.9000000000000p+6", 0, "0x0.0p+0", 1),
        (), 0, 11,
    ),
    ("interrupt", "parked", "inline"): (
        (("victim", "interrupted", "0x1.0000000000000p-1"),
         ("holder", "ok", "0x1.0000000000000p+0"),
         ("next", "ok", "0x1.0000000000000p+1")),
        (("interrupt victim", "0x1.0000000000000p-1", 2, 2),),
        (2, "0x1.9000000000000p+7", 1, "0x1.9000000000000p+6", 0),
        (), 0, 13,
    ),
    ("interrupt", "grant_pushed", "inline"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "interrupted", "0x1.0000000000000p+0"),
         ("next", "ok", "0x1.0000000000000p+1")),
        (("interrupt victim", "0x1.0000000000000p+0", 4, 1),),
        (2, "0x1.9000000000000p+7", 1, "0x1.9000000000000p+6", 0),
        (), 0, 11,
    ),
    ("interrupt", "grant_processed", "inline"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "interrupted", "0x1.0000000000000p+0"),
         ("next", "ok", "0x1.0000000000000p+1")),
        (("interrupt victim", "0x1.0000000000000p+0", 4, 1),),
        (2, "0x1.9000000000000p+7", 1, "0x1.9000000000000p+6", 0),
        (), 0, 12,
    ),
    ("interrupt", "mid_hold", "inline"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "interrupted", "0x1.8000000000000p+0"),
         ("next", "ok", "0x1.4000000000000p+1")),
        (("interrupt victim", "0x1.8000000000000p+0", 4, 1),),
        (2, "0x1.9000000000000p+7", 1, "0x1.9000000000000p+6", 0),
        (), 0, 14,
    ),
    ("interrupt", "end_before_timeout", "inline"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "ok", "0x1.0000000000000p+1"),
         ("next", "ok", "0x1.8000000000000p+1")),
        (("interrupt victim", "0x1.0000000000000p+1", 4, 1),),
        (3, "0x1.2c00000000000p+8", 2, "0x1.9000000000000p+7", 0),
        (), 0, 14,
    ),
    ("interrupt", "end_after_timeout", "inline"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "ok", "0x1.0000000000000p+1"),
         ("next", "ok", "0x1.8000000000000p+1")),
        (("interrupt victim", "0x1.0000000000000p+1", 4, 0),),
        (3, "0x1.2c00000000000p+8", 2, "0x1.9000000000000p+7", 0),
        (), 0, 13,
    ),
    ("interrupt", "parked", "started"): (
        (("victim", "interrupted", "0x1.0000000000000p-1"),
         ("holder", "ok", "0x1.0000000000000p+0"),
         ("next", "ok", "0x1.8000000000000p+1")),
        (("interrupt victim", "0x1.0000000000000p-1", 2, 2),),
        (3, "0x1.2c00000000000p+8", 2, "0x1.9000000000000p+7", 0),
        (), 0, 15,
    ),
    ("interrupt", "grant_pushed", "started"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "interrupted", "0x1.0000000000000p+0"),
         ("next", "ok", "0x1.8000000000000p+1")),
        (("interrupt victim", "0x1.0000000000000p+0", 4, 1),),
        (3, "0x1.2c00000000000p+8", 2, "0x1.9000000000000p+7", 0),
        (), 0, 12,
    ),
    ("interrupt", "grant_processed", "started"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "interrupted", "0x1.0000000000000p+0"),
         ("next", "ok", "0x1.8000000000000p+1")),
        (("interrupt victim", "0x1.0000000000000p+0", 4, 1),),
        (3, "0x1.2c00000000000p+8", 2, "0x1.9000000000000p+7", 0),
        (), 0, 13,
    ),
    ("interrupt", "mid_hold", "started"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "interrupted", "0x1.8000000000000p+0"),
         ("next", "ok", "0x1.8000000000000p+1")),
        (("interrupt victim", "0x1.8000000000000p+0", 4, 1),),
        (3, "0x1.2c00000000000p+8", 2, "0x1.9000000000000p+7", 0),
        (), 0, 15,
    ),
    ("interrupt", "end_before_timeout", "started"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "interrupted", "0x1.0000000000000p+1"),
         ("next", "ok", "0x1.8000000000000p+1")),
        (("interrupt victim", "0x1.0000000000000p+1", 4, 1),),
        (3, "0x1.2c00000000000p+8", 2, "0x1.9000000000000p+7", 0),
        (), 0, 15,
    ),
    ("interrupt", "end_after_timeout", "started"): (
        (("holder", "ok", "0x1.0000000000000p+0"),
         ("victim", "ok", "0x1.0000000000000p+1"),
         ("next", "ok", "0x1.8000000000000p+1")),
        (("interrupt victim", "0x1.0000000000000p+1", 4, 0),),
        (3, "0x1.2c00000000000p+8", 2, "0x1.9000000000000p+7", 0),
        (), 0, 15,
    ),
    "straggler": (
        (("bystander", "ok", "0x1.0000000000000p+2"),
         ("late", "ok", "0x1.4000000000000p+2"),
         ("straggler", "exhausted", "0x1.c000000000000p+2")),
        (),
        (2, "0x1.9000000000000p+7", 2, "0x1.9000000000000p+7", 0),
        (), 0, 23,
    ),
    ("disk", "read_vs_transfer"): (
        (("victim", "aborted by 0", "0x1.0000000000000p-2"),
         ("read", "ok", "0x1.0000000000000p-1")),
        (("kill 0: 1 aborted", "0x1.0000000000000p-2", 1, 1),),
        (0, "0x0.0p+0", 0, "0x0.0p+0", 1),
        (), 0, 9,
    ),
    ("disk", "interrupted_read"): (
        (("read", "interrupted", "0x1.0000000000000p-2"),
         ("write", "ok", "0x1.0000000000000p-1")),
        (("interrupt read", "0x1.0000000000000p-2", 1, 1),),
        (0, "0x0.0p+0", 0, "0x0.0p+0", 0),
        (), 0, 11,
    ),
    ("disk", "noop"): (
        (("inline_noop", "ok", "0x0.0p+0"),
         ("started_noop", "ok", "0x0.0p+0")),
        (),
        (0, "0x0.0p+0", 0, "0x0.0p+0", 0),
        (), 0, 6,
    ),
    "flush": (
        (("read", "ok", "0x1.8000000000000p-1"),
         ("write", "(0, 3, 2)", "0x1.0000000000000p+1"),
         ("write", "(0, 3, 2)", "0x1.0000000000000p+2"),
         ("write", "(0, 3, 2)", "0x1.8000000000000p+2")),
        (),
        (6, "0x1.2c00000000000p+9", 3, "0x1.2c00000000000p+8", 0),
        (), 0, 21,
    ),
}


@pytest.mark.parametrize("point", sorted(ABORT_POINTS))
@pytest.mark.parametrize("victim", sorted(VICTIMS))
def test_abort_races_end_where_they_did(point, victim):
    assert abort_race(point, victim) == GOLDEN["abort", point, victim]


INTERRUPT_POINTS = (
    "parked", "grant_pushed", "grant_processed", "mid_hold",
    "end_before_timeout", "end_after_timeout",
)


@pytest.mark.parametrize("point", INTERRUPT_POINTS)
@pytest.mark.parametrize("kind", ("inline", "started"))
def test_interrupts_free_links_where_they_did(point, kind):
    assert interrupt_race(point, kind) == GOLDEN["interrupt", point, kind]


def test_straggler_interrupted_mid_transfer():
    assert straggler() == GOLDEN["straggler"]


@pytest.mark.parametrize(
    "case", ("read_vs_transfer", "interrupted_read", "noop")
)
def test_disk_holds(case):
    assert disk_holds(case) == GOLDEN["disk", case]


def test_client_flushes():
    assert client_flushes() == GOLDEN["flush"]
