"""Checkpoint manifest (``MANIFEST.json``) for the signature store.

A checkpoint is a snapshot of everything the server would otherwise have
to *recompute* from the log on restart: how many records are durable, which
segment files hold them, the per-record metadata (content hash + top-frame
locations) that normally requires deserializing every blob, and the next
user id to issue.  It holds no per-user index: every log record carries
its sender's uid, so restart rebuilds the adjacency index (§III-C2) from
the log itself.

With a manifest present, restart replays only the records *past*
``record_count`` — the checkpointed prefix is loaded straight off the
segment files without CRC re-verification or signature parsing.  The
decoder produces the metadata as two columns (``sig_ids`` and
``top_frames``, one frozenset of locations per record) that the store and
the database take over as they are.  A missing,
torn, or inconsistent manifest is never fatal: the store falls back to a
full validating replay of the log (the manifest is an accelerator, the log
is the truth).

The file is written atomically (temp file + ``fsync`` + ``os.replace`` +
directory ``fsync``), so a crash mid-checkpoint leaves the previous
manifest intact.

Rewriting the full manifest is O(history) — at 50k+ signatures the JSON
dump alone stalls the appending thread for tens of milliseconds.  So only
the *first* checkpoint (and the final one at clean shutdown) writes
``MANIFEST.json``; periodic checkpoints append a **delta line** to
``MANIFEST.delta.jsonl`` instead, covering just the records since the
previous checkpoint — O(delta) work regardless of history size.  On open
the deltas are composed over their base manifest
(:func:`load_manifest_with_deltas`); a torn trailing delta line (crash
mid-append) simply ends the composition there, and a delta chain whose
base doesn't match is discarded wholesale — same "accelerator, not truth"
stance as the manifest itself.

The uid watermark has a second, *eager* home: the tiny ``UID_WATERMARK``
sidecar, rewritten (same atomic dance) on every token issue.  Checkpoints
are periodic, so without the sidecar a ``kill -9`` landing between a token
issue and the next checkpoint would replay an older ``next_uid`` and hand
the same uid to a different person — merging their quota and adjacency
history.  The sidecar is a single integer, cheap enough to persist per
issue; on open the store takes the max of manifest, log records, and
sidecar.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.store.wal import durable_replace, fsync_dir
from repro.util.logging import get_logger

log = get_logger("store.checkpoint")

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_DELTA_NAME = "MANIFEST.delta.jsonl"
MANIFEST_VERSION = 1
UID_WATERMARK_NAME = "UID_WATERMARK"

#: ``(class_name, method, line)`` — a frame location as stored in
#: signature metadata.
Location = tuple[str, str, int]


@dataclass
class Manifest:
    record_count: int
    segment_records: int
    segments: list[str] = field(default_factory=list)
    #: Content hash of each checkpointed record, in record order.
    sig_ids: list[str] = field(default_factory=list)
    #: Top-frame locations of each checkpointed record, parallel to
    #: ``sig_ids``: sorted tuples when written, frozensets once decoded.
    top_frames: list = field(default_factory=list)
    #: Restart continuity for :class:`~repro.crypto.userid.UserIdAuthority`.
    next_uid: int = 1
    #: ``record_count`` of the on-disk ``MANIFEST.json`` this object was
    #: composed from (== ``record_count`` when no deltas applied).  Set by
    #: :func:`load_manifest_with_deltas` only; not serialized.
    base_record_count: int | None = None

    def encode(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "record_count": self.record_count,
            "segment_records": self.segment_records,
            "segments": list(self.segments),
            "entries": _encode_rows(self.sig_ids, self.top_frames),
            "next_uid": self.next_uid,
        }

    @staticmethod
    def decode(obj: dict) -> "Manifest":
        if obj.get("version") != MANIFEST_VERSION:
            raise ValueError(f"unsupported manifest version {obj.get('version')!r}")
        record_count = int(obj["record_count"])
        segment_records = int(obj["segment_records"])
        if record_count < 0 or segment_records < 1:
            raise ValueError(
                f"nonsensical manifest counts (records={record_count}, "
                f"segment_records={segment_records})"
            )
        rows = obj["entries"]
        if len(rows) != record_count:
            raise ValueError(
                f"manifest lists {len(rows)} entries for "
                f"{record_count} records"
            )
        sig_ids, top_frames = _decode_rows(rows)
        return Manifest(
            record_count=record_count,
            segment_records=segment_records,
            segments=[str(s) for s in obj.get("segments", [])],
            sig_ids=sig_ids,
            top_frames=top_frames,
            next_uid=int(obj.get("next_uid", 1)),
        )


def _encode_rows(sig_ids: list[str], top_frames: list) -> list[list]:
    """``[sig_id, [[class, method, line], ...]]`` per record."""
    return [[sig_id, [list(loc) for loc in frames]]
            for sig_id, frames in zip(sig_ids, top_frames)]


def _decode_rows(rows: list) -> tuple[list[str], list[frozenset]]:
    """Inverse of :func:`_encode_rows`, straight into the ``(sig_ids,
    top_frames)`` columns; fields past the frames (the uid that delta
    lines and manifests written before the per-user index was dropped
    carry) are ignored."""
    sig_ids = [str(row[0]) for row in rows]
    top_frames = [
        frozenset([(str(c), str(m), int(line)) for c, m, line in row[1]])
        for row in rows
    ]
    return sig_ids, top_frames


def manifest_path(data_dir: str) -> str:
    return os.path.join(data_dir, MANIFEST_NAME)


def write_manifest(data_dir: str, manifest: Manifest) -> None:
    """Atomically persist the manifest (crash-safe replace)."""
    data = json.dumps(manifest.encode(), separators=(",", ":"))
    durable_replace(manifest_path(data_dir), data.encode("utf-8"))


def uid_watermark_path(data_dir: str) -> str:
    return os.path.join(data_dir, UID_WATERMARK_NAME)


def write_uid_watermark(data_dir: str, next_uid: int) -> None:
    """Atomically persist the next-uid watermark (crash-safe replace)."""
    durable_replace(uid_watermark_path(data_dir), f"{next_uid}\n".encode())


def load_uid_watermark(data_dir: str) -> int:
    """The persisted watermark, or 1 when absent or unusable (the manifest
    and the log records still bound ``next_uid`` from below, so a damaged
    sidecar degrades to the pre-sidecar behavior, never to a failure)."""
    path = uid_watermark_path(data_dir)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            value = int(fh.read().strip())
    except FileNotFoundError:
        return 1
    except (ValueError, OSError) as exc:
        log.warning("ignoring unusable uid watermark %s (%s)", path, exc)
        return 1
    if value < 1:
        log.warning("ignoring nonsensical uid watermark %d in %s", value, path)
        return 1
    return value


def load_manifest(data_dir: str) -> Manifest | None:
    """The manifest, or ``None`` when absent or unusable (any damage means
    "checkpoint ignored, full replay" — never a startup failure)."""
    path = manifest_path(data_dir)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        return Manifest.decode(obj)
    except FileNotFoundError:
        return None
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        log.warning("ignoring unusable manifest %s (%s); will fully replay",
                    path, exc)
        return None


# ------------------------------------------------------- manifest deltas
def manifest_delta_path(data_dir: str) -> str:
    return os.path.join(data_dir, MANIFEST_DELTA_NAME)


def append_manifest_delta(data_dir: str, base_count: int, from_count: int,
                          sig_ids: list[str],
                          top_frames: list[tuple[Location, ...]],
                          next_uid: int) -> None:
    """Append one checkpoint delta line covering records
    ``[from_count, from_count + len(sig_ids))``.

    ``base_count`` pins the delta chain to the full manifest it extends
    (its ``record_count``); ``sig_ids``/``top_frames`` are the records'
    metadata columns.  The line is flushed and fsynced before returning:
    a checkpoint must never vouch for records less durable than itself."""
    line = json.dumps({
        "base": base_count,
        "from": from_count,
        "entries": _encode_rows(sig_ids, top_frames),
        "next_uid": next_uid,
    }, separators=(",", ":"))
    path = manifest_delta_path(data_dir)
    existed = os.path.exists(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    if not existed:
        fsync_dir(data_dir)  # the delta file's dir entry is durable


def clear_manifest_delta(data_dir: str) -> None:
    """Remove the delta chain (after a full manifest made it redundant)."""
    try:
        os.unlink(manifest_delta_path(data_dir))
    except FileNotFoundError:
        pass


def load_manifest_with_deltas(data_dir: str) -> Manifest | None:
    """The *effective* manifest: the full ``MANIFEST.json`` with every
    cleanly-composable delta line applied on top.

    Composition stops (without failing) at the first line that is torn,
    unparseable, pinned to a different base, or discontiguous with the
    count composed so far — everything before it still accelerates the
    restart, everything after it is re-validated from the log."""
    manifest = load_manifest(data_dir)
    if manifest is None:
        return None
    manifest.base_record_count = manifest.record_count
    path = manifest_delta_path(data_dir)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return manifest
    except OSError as exc:
        log.warning("ignoring unreadable manifest delta %s (%s)", path, exc)
        return manifest
    base_count = manifest.record_count
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if int(obj["base"]) != base_count:
                raise ValueError(
                    f"delta base {obj['base']} != manifest {base_count}")
            if int(obj["from"]) != manifest.record_count:
                raise ValueError(
                    f"delta from {obj['from']} != composed "
                    f"{manifest.record_count}")
            sig_ids, top_frames = _decode_rows(obj["entries"])
            next_uid = int(obj.get("next_uid", 1))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            log.warning("stopping manifest-delta composition at line %d "
                        "of %s (%s); later records replay from the log",
                        lineno + 1, path, exc)
            break
        manifest.sig_ids.extend(sig_ids)
        manifest.top_frames.extend(top_frames)
        manifest.record_count += len(sig_ids)
        manifest.next_uid = max(manifest.next_uid, next_uid)
    return manifest
