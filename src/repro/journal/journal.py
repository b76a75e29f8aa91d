"""The ``MetadataJournal`` façade: journal-before-apply for the stores.

Every metadata change is one typed record, and
:func:`~repro.journal.records.commit` is its one live path: the
record's validity test, then :meth:`MetadataJournal.append` (when the
owning store has this journal attached), then the record's transition.
That order is the classic write-ahead invariant: any state the process
could have observed is reconstructible from the durable log prefix, and
replay runs the same test and transition over the log.

The journal also owns the pieces of durable state that do not live in a
store — the permanent dead-node set and the pending relocation requests,
both in its :class:`~repro.journal.state.Stores` bundle — plus checkpoint
writing and the armed :class:`~repro.journal.crashpoints.CrashPoint`
used by the crash drills.  When ``track_fingerprints`` is on, the journal
snapshots ``state_fingerprint()`` at the *entry* of every append (before
the record applies) — the golden per-prefix fingerprints the
differential crash checks compare against.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Type

from repro.journal import records as rec
from repro.journal.checkpoint import (
    drop_old_checkpoints,
    prune_segments,
    write_checkpoint,
)
from repro.journal.crashpoints import CrashPoint, SimulatedCrash
from repro.journal.state import Stores, capture_state, fingerprint_of
from repro.journal.wal import (
    DEFAULT_SEGMENT_RECORDS,
    JournalWriter,
    frame_line,
    scan_journal,
)
from repro.sim.metrics import PERF

#: Records between periodic checkpoints: what a recovery replays at most.
DEFAULT_CHECKPOINT_RECORDS = 8 * DEFAULT_SEGMENT_RECORDS


class MetadataJournal:
    """Append-only write-ahead journal for NameNode-side metadata.

    Args:
        directory: Journal directory; an existing one is resumed (the
            writer starts a fresh segment and sequence numbers continue
            from the durable tail).
        segment_records: Records per segment before rotation.
        checkpoint_records: Write a checkpoint every this many appended
            records, bounding what :func:`~repro.journal.recovery.recover`
            replays (``None``: only on :meth:`checkpoint` calls).
        fsync: Also fsync every record as it is appended (off by
            default — tests model durability as the line reaching the
            kernel).
        crash_at: Optional armed crash point; the journal raises
            :class:`SimulatedCrash` when its sequence number comes up.
        track_fingerprints: Record ``state_fingerprint()`` at the entry
            of every append (golden data for the crash differential).
    """

    def __init__(
        self,
        directory: str,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        checkpoint_records: Optional[int] = DEFAULT_CHECKPOINT_RECORDS,
        fsync: bool = False,
        crash_at: Optional[CrashPoint] = None,
        track_fingerprints: bool = False,
    ) -> None:
        if checkpoint_records is not None and checkpoint_records < 1:
            raise ValueError("checkpoint_records must be positive or None")
        self.directory = directory
        self._seq = scan_journal(directory).last_seq
        self._cadence = checkpoint_records or math.inf
        self._checkpointed_seq = self._seq
        self.writer = JournalWriter(
            directory, segment_records=segment_records, fsync=fsync
        )
        self.crash_at = crash_at
        self.track_fingerprints = track_fingerprints
        self.fingerprints: Dict[int, str] = {}
        self.stores = Stores()
        self.stores.journal = self

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(
        self,
        block_store=None,
        stripe_store=None,
        namespace=None,
    ) -> None:
        """Point the stores at this journal and add them to :attr:`stores`.

        Each attached store journals its own mutations from then on; the
        bundle lets :meth:`checkpoint` and :meth:`current_fingerprint`
        see the whole state.
        """
        for name, store in (
            ("blocks", block_store),
            ("stripes", stripe_store),
            ("namespace", namespace),
        ):
            if store is not None:
                setattr(self.stores, name, store)
                store.journal = self

    @property
    def last_seq(self) -> int:
        """The sequence number of the most recently appended record."""
        return self._seq

    # ------------------------------------------------------------------
    # The write-ahead append
    # ------------------------------------------------------------------
    def append(self, record_class: Type[rec.JournalRecord],
               fields: tuple) -> int:
        """Journal one ``record_class`` record with field values ``fields``
        (declaration order); returns its sequence number.  The record is
        on disk when this returns.

        This is the crash-injection point: an armed :class:`CrashPoint`
        whose sequence number comes up raises :class:`SimulatedCrash`
        before (``"before"``), during (``"torn"``) or after
        (``"after"``) the record becomes durable — the caller's
        in-memory mutation never happens in any of the three phases,
        matching a process that died inside the commit path.

        The periodic checkpoint is taken here, on entry and as of the
        previous record: the one point where every journaled record has
        been applied by its caller (a snapshot after this record is
        written would claim its sequence number without its effect).
        """
        seq = self._seq + 1
        if (
            seq - self._checkpointed_seq > self._cadence
            and self.stores.blocks is not None
        ):
            self.checkpoint()
        if self.track_fingerprints:
            self.fingerprints[seq] = self.current_fingerprint()
        line = frame_line(rec.record_text(seq, record_class, fields))
        point = self.crash_at
        if point is not None and seq == point.seq:
            self.crash_at = None
            if point.phase == "torn":
                self.writer.write_torn(line)
            elif point.phase == "after":
                self.writer.write(line)
            raise SimulatedCrash(point)
        self.writer.write(line)
        self._seq = seq
        PERF.bump("journal.records_appended")
        PERF.bump("journal.bytes_appended", len(line))
        return seq

    def flush(self) -> None:
        """The durability point: appended records are already on disk, so
        this only fsyncs the open segment under ``fsync=True``."""
        self.writer.sync()

    # ------------------------------------------------------------------
    # Changes to the state no store owns (see :class:`Stores`)
    # ------------------------------------------------------------------
    def node_dead(self, node_id: int) -> None:
        """Record a permanent (metadata-visible) node death."""
        rec.commit(self.stores, rec.NodeDead, (node_id,))

    def node_alive(self, node_id: int) -> None:
        """Record a dead node rejoining the cluster."""
        rec.commit(self.stores, rec.NodeAlive, (node_id,))

    def relocation_requested(self, stripe_id: int) -> None:
        """Record a placement-violation relocation request (repair queue).

        Duplicates are allowed — the repair queue's replacement path may
        flag the same stripe once per block it places — and each request
        is matched by one :meth:`relocation_served`.
        """
        rec.commit(self.stores, rec.RelocationRequested, (stripe_id,))

    def relocation_served(self, stripe_id: int) -> None:
        """Record a pending relocation leaving the backlog."""
        rec.commit(self.stores, rec.RelocationServed, (stripe_id,))

    # ------------------------------------------------------------------
    # Checkpoints and fingerprints
    # ------------------------------------------------------------------
    def current_state(self) -> Dict[str, object]:
        """The canonical state dict of every attached store."""
        if self.stores.blocks is None:
            raise ValueError(
                "no block store attached; call journal.attach(...) first"
            )
        return capture_state(self.stores)

    def current_fingerprint(self) -> str:
        """``state_fingerprint()`` over every attached store."""
        return fingerprint_of(self.current_state())

    def checkpoint(self, prune: bool = False) -> str:
        """Write an fsimage-style snapshot as of the current sequence.

        Only the newest two checkpoints are kept.  With ``prune=True``,
        segments fully covered by the checkpoint are deleted (the
        writer's active segment is always kept).
        """
        self.flush()
        path = write_checkpoint(
            self.directory, self._seq, self.current_state()
        )
        drop_old_checkpoints(self.directory)
        self._checkpointed_seq = self._seq
        PERF.bump("journal.checkpoints")
        if prune:
            prune_segments(
                self.directory,
                self._seq,
                keep=(self.writer.current_segment_path,),
            )
        return path

    def close(self) -> None:
        """Flush and release the underlying writer."""
        self.flush()
        self.writer.close()
