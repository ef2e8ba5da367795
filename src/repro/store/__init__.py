"""Durable storage for the Communix signature database.

The immunity story (§III-B) assumes the collaborative store is
*monotonically indexed and durable*: a server that forgets its signatures
on restart re-exposes every client fleet to deadlocks they were already
immunized against.  This package is that durability layer — a segmented
append-only write-ahead log with CRC-framed records, an ``always`` or
``never`` fsync policy, torn-tail repair, and checkpointed restart:

* :mod:`repro.store.records` — the ``len | crc32 | payload`` record frame;
* :mod:`repro.store.wal` — segment files, rotation, the fsync commit,
  crash recovery of the longest valid prefix;
* :mod:`repro.store.checkpoint` — the ``MANIFEST.json`` snapshot that
  lets restart skip re-validating the checkpointed prefix;
* :mod:`repro.store.store` — :class:`SignatureStore`, the facade the
  server wires into :class:`~repro.server.database.SignatureDatabase`.
"""

from repro.store.checkpoint import (
    Manifest,
    load_manifest,
    load_manifest_with_deltas,
    write_manifest,
)
from repro.store.records import LogRecord, pack_record, scan_records
from repro.store.store import RecoveredEntry, SignatureStore, StoreError
from repro.store.wal import DEFAULT_SEGMENT_RECORDS, FSYNC_POLICIES, SegmentedLog

__all__ = [
    "DEFAULT_SEGMENT_RECORDS",
    "FSYNC_POLICIES",
    "LogRecord",
    "Manifest",
    "RecoveredEntry",
    "SegmentedLog",
    "SignatureStore",
    "StoreError",
    "load_manifest",
    "load_manifest_with_deltas",
    "pack_record",
    "scan_records",
    "write_manifest",
]
