"""Durability layer: write-ahead journal, checkpoints, crash recovery.

The light pieces (record vocabulary, WAL format, crash points) import
eagerly; the heavy pieces that touch the stores (``MetadataJournal``,
``recover``, state capture) resolve lazily via PEP 562 so the store
modules can themselves import :mod:`repro.journal.records` without a
cycle.
"""

from repro.journal.crashpoints import CRASH_PHASES, CrashPoint, SimulatedCrash
from repro.journal.records import (
    RECORD_TYPES,
    JournalRecord,
    UnknownRecordError,
    decode_record,
)
from repro.journal.wal import (
    DEFAULT_SEGMENT_RECORDS,
    JournalFormatError,
    JournalWriter,
    ScanResult,
    list_segments,
    scan_journal,
)

_LAZY = {
    "MetadataJournal": ("repro.journal.journal", "MetadataJournal"),
    "recover": ("repro.journal.recovery", "recover"),
    "RecoveredState": ("repro.journal.recovery", "RecoveredState"),
    "RecoveryStats": ("repro.journal.recovery", "RecoveryStats"),
    "verify_stripe_consistency": (
        "repro.journal.recovery", "verify_stripe_consistency"
    ),
    "capture_state": ("repro.journal.state", "capture_state"),
    "restore_state": ("repro.journal.state", "restore_state"),
    "state_fingerprint": ("repro.journal.state", "state_fingerprint"),
    "verify_journal": ("repro.journal.verify", "verify_journal"),
    "VerifyReport": ("repro.journal.verify", "VerifyReport"),
    "write_checkpoint": ("repro.journal.checkpoint", "write_checkpoint"),
    "load_latest_checkpoint": (
        "repro.journal.checkpoint", "load_latest_checkpoint"
    ),
}

__all__ = [
    "CRASH_PHASES",
    "CrashPoint",
    "DEFAULT_SEGMENT_RECORDS",
    "JournalFormatError",
    "JournalRecord",
    "JournalWriter",
    "RECORD_TYPES",
    "ScanResult",
    "SimulatedCrash",
    "UnknownRecordError",
    "decode_record",
    "list_segments",
    "scan_journal",
] + sorted(_LAZY)


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.journal' has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
