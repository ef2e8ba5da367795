"""Segmented append-only write-ahead log (``segment-<n>.cxlog`` files).

The log rotates to a fresh segment file every ``segment_records`` appends,
so segment *n* always holds records ``[n * segment_records,
(n+1) * segment_records)`` — the same stripe boundaries as the in-memory
:class:`~repro.server.database.SignatureDatabase` segments, which keeps
"replay segment file → rebuild database segment" a one-to-one walk.

Every append takes one path in two phases: :meth:`append_unflushed`
buffers the record under the append lock, :meth:`commit_appended` makes
it durable outside that lock, and :meth:`rollback_appended` undoes it when
the commit fails.  :meth:`append` is exactly those three calls.  What the
commit does is the **fsync policy**, one of :data:`FSYNC_POLICIES`:

* ``always`` — no append returns before an fsync covers its record; an
  acked ADD survives ``kill -9``.  Concurrent appends **group-commit**:
  the first thread to reach the commit phase becomes the batch leader and
  issues one fsync covering every record written so far; the others just
  wait for a leader whose fsync covers them.  One disk flush amortises
  over the whole batch.
* ``never`` — the commit is a no-op and the OS decides; a graceful drain,
  a checkpoint and a clean :meth:`close` still flush and fsync.

Sealed segments are flushed **and fsynced at rotation under both
policies** — ``flush()`` and checkpoints only reach the current tail file,
so rotation is the one moment a sealed segment can be made durable.

Opening a directory recovers it: segment files are scanned in order, a
torn tail (partial record after a crash) is truncated back to the last
valid record, and any segments *after* a damaged one are set aside as
``*.orphan`` files rather than silently merged past a hole.
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass
from time import perf_counter

from repro.obs import STAGE_GROUP_COMMIT, STAGE_WAL_FSYNC
from repro.store.records import LogRecord, pack_record, scan_into
from repro.util.logging import get_logger

log = get_logger("store.wal")

#: Records per segment file; mirrors the database's in-memory stripe size
#: (``repro.server.database.DEFAULT_SEGMENT_SIZE``) so one log segment
#: replays into exactly one database segment.
DEFAULT_SEGMENT_RECORDS = 1024

SEGMENT_SUFFIX = ".cxlog"
_SEGMENT_RE = re.compile(r"^segment-(\d{8})\.cxlog$")

FSYNC_ALWAYS = "always"
FSYNC_NEVER = "never"
FSYNC_POLICIES = (FSYNC_ALWAYS, FSYNC_NEVER)


def check_fsync_policy(policy: str) -> str:
    """``policy`` itself when it is one of :data:`FSYNC_POLICIES`."""
    if policy not in FSYNC_POLICIES:
        raise ValueError(f"bad fsync policy {policy!r} (want always or never)")
    return policy


def segment_filename(seq: int) -> str:
    return f"segment-{seq:08d}{SEGMENT_SUFFIX}"


def fsync_dir(path: str) -> None:
    """Make a directory entry durable: fsyncing file *contents* does not
    persist the file's existence — without this, a power loss can drop a
    freshly-rotated segment (and every acked record in it) wholesale."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def durable_replace(path: str, data: bytes) -> None:
    """Replace the file at ``path`` with ``data`` so that a crash leaves
    either the old file or the new one, whole: write a temp file, fsync
    it, rename it over ``path``, then fsync the directory so the rename
    itself survives a power loss."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(os.path.dirname(path) or ".")


def list_segments(data_dir: str) -> list[tuple[int, str]]:
    """Sorted ``(seq, filename)`` pairs of the segment files in a dir."""
    found = []
    for name in os.listdir(data_dir):
        match = _SEGMENT_RE.match(name)
        if match:
            found.append((int(match.group(1)), name))
    found.sort()
    return found


@dataclass
class RecoveryReport:
    """What :class:`SegmentedLog` found (and repaired) while opening."""

    record_count: int = 0
    segment_count: int = 0
    truncated_bytes: int = 0
    orphaned_segments: int = 0


class SegmentedLog:
    """The durable byte layer: append records, rotate segments, recover.

    Thread safety: :meth:`append` may be called from many worker threads
    (they serialize on an internal lock for the write phase and share
    group-committed fsyncs for the commit phase).
    """

    def __init__(self, data_dir: str,
                 segment_records: int = DEFAULT_SEGMENT_RECORDS,
                 fsync: str = FSYNC_ALWAYS,
                 trusted_records: int = 0):
        """``trusted_records`` is the checkpointed prefix length: records a
        durable manifest already vouches for skip CRC re-verification when
        their segment is fully covered (framing is still parsed)."""
        if segment_records < 1:
            raise ValueError("segment_records must be positive")
        self.data_dir = data_dir
        self.segment_records = segment_records
        self.trusted_records = max(0, trusted_records)
        self.fsync_policy = check_fsync_policy(fsync)
        self.recovery = RecoveryReport()
        self._lock = threading.Lock()
        self._commit_lock = threading.Lock()  # group-commit leader election
        self._file = None  # tail segment file handle (append mode)
        self._tail_seq = 0
        self._tail_records = 0
        self._count = 0
        self._durable = 0  # records covered by a completed fsync
        self._fsyncs_issued = 0  # commit-phase fsyncs (batching visibility)
        self._last_pos = 0  # file offset of the newest record's start
        self._closed = False
        self._broken = False  # a failed write could not be rolled back
        self._h_fsync = None  # stage.wal_fsync histogram (set_metrics)
        self._h_group = None  # stage.group_commit histogram (set_metrics)
        os.makedirs(data_dir, exist_ok=True)
        self._recovered = self._recover()
        self._durable = self._count  # everything recovered is on disk
        self._open_tail()

    # ------------------------------------------------------------- recovery
    def _recover(self) -> tuple[list[int], list[bytes]]:
        """Scan segments in order; truncate the torn tail; orphan anything
        past a damaged segment.  Returns every recovered record as the
        parallel ``(uids, blobs)`` columns."""
        uids: list[int] = []
        blobs: list[bytes] = []
        report = self.recovery
        segments = list_segments(self.data_dir)
        broken_at: int | None = None
        for position, (seq, name) in enumerate(segments):
            if broken_at is not None or seq != position:
                # A gap in the sequence (or anything after damage) cannot
                # be stitched past: set it aside for the operator.
                self._orphan(name)
                report.orphaned_segments += 1
                if broken_at is None:
                    broken_at = position
                continue
            path = os.path.join(self.data_dir, name)
            with open(path, "rb") as fh:
                data = fh.read()
            # A segment whose every record sits inside the checkpointed
            # prefix was already validated before the manifest was
            # written; parse its framing but skip the CRC pass.
            verify = ((position + 1) * self.segment_records
                      > self.trusted_records)
            before = len(blobs)
            valid_bytes = scan_into(data, uids, blobs, verify_crc=verify)
            found = len(blobs) - before
            if found > self.segment_records:
                # More records than one segment can hold: the directory
                # was written under a different segmentation.  Refusing is
                # the only safe move — the seq/index math below would
                # silently misplace the tail.
                raise ValueError(
                    f"{name} holds {found} records but this log is "
                    f"configured for {self.segment_records} per segment; "
                    "reopen with the segmentation the data dir was "
                    "written with"
                )
            torn = valid_bytes < len(data)
            if torn:
                log.warning("torn tail in %s: truncating %d byte(s) after "
                            "record %d", name, len(data) - valid_bytes,
                            len(blobs))
                report.truncated_bytes += len(data) - valid_bytes
                self._truncate(path, valid_bytes)
            if found < self.segment_records:
                # A short segment is only legal as the live tail.  When a
                # *cleanly*-short one (no torn bytes — every byte parsed)
                # has segments after it and no manifest vouches for the
                # layout, this is indistinguishable from a reopen with the
                # wrong segment_records; auto-orphaning the followers
                # would silently discard durable records, so refuse.
                if (position < len(segments) - 1 and not torn
                        and self.trusted_records == 0):
                    raise ValueError(
                        f"{name} holds {found} records (expected "
                        f"{self.segment_records}) yet further segments "
                        "follow and no manifest describes the layout; "
                        "reopen with the segmentation this directory was "
                        "written with, or restore MANIFEST.json"
                    )
                broken_at = position + 1
        self._count = len(blobs)
        self._tail_seq = self._count // self.segment_records
        self._tail_records = self._count % self.segment_records
        report.record_count = self._count
        report.segment_count = self._tail_seq + (1 if self._tail_records else 0)
        return uids, blobs

    def _orphan(self, name: str) -> None:
        src = os.path.join(self.data_dir, name)
        dst = src + ".orphan"
        log.warning("setting aside unexpected segment %s", name)
        suffix = 0
        while os.path.exists(dst):  # pragma: no cover - repeated crashes
            suffix += 1
            dst = f"{src}.orphan.{suffix}"
        os.replace(src, dst)

    @staticmethod
    def _truncate(path: str, size: int) -> None:
        with open(path, "r+b") as fh:
            fh.truncate(size)
            fh.flush()
            os.fsync(fh.fileno())

    def recovered_columns(self) -> tuple[list[int], list[bytes]]:
        """The records found at open time as parallel ``(uids, blobs)``
        columns (consumed once, by the store)."""
        columns, self._recovered = self._recovered, ([], [])
        return columns

    def recovered_records(self) -> list[LogRecord]:
        """:meth:`recovered_columns` as :class:`LogRecord` objects."""
        return list(map(LogRecord, *self.recovered_columns()))

    # -------------------------------------------------------------- writing
    def _open_tail(self) -> None:
        path = os.path.join(self.data_dir, segment_filename(self._tail_seq))
        existed = os.path.exists(path)
        self._file = open(path, "ab")
        if not existed:
            fsync_dir(self.data_dir)  # the new file's dir entry is durable

    def _rotate_locked(self) -> None:
        """Seal the full tail segment (flush + fsync, under *both*
        policies: ``flush()``/checkpoints only ever touch the current tail,
        so this is the one chance to make a sealed segment durable — one
        fsync per ``segment_records`` appends is cheap even for ``never``)
        and start the next one.  Ordered so any failure leaves the old
        tail open and every counter untouched — the caller's append simply
        fails without side effects."""
        fh = self._file
        fh.flush()
        os.fsync(fh.fileno())
        next_seq = self._tail_seq + 1
        new = open(os.path.join(self.data_dir, segment_filename(next_seq)),
                   "ab")
        fsync_dir(self.data_dir)  # persist the new segment's dir entry
        fh.close()
        self._file = new
        self._tail_seq = next_seq
        self._tail_records = 0

    def append(self, blob: bytes, sender_uid: int, trace=None) -> int:
        """Durably append one record; returns its log index.

        The write phase, the commit phase, and on a failed commit the
        rollback — the same three calls the store makes.  All-or-nothing
        when this record is the only one the failed commit covered: it is
        rolled back (file truncated to its pre-append length, buffer
        discarded) before the ``OSError`` propagates, so a failed append
        changes nothing.  When a group fsync fails with *several* records
        pending, none of the waiters ack (each surfaces the ``OSError``)
        but the batch cannot be unwound — a crash-restart may then recover
        records that were never acked, which is safe: replay is idempotent
        at the database layer (sig_id dedup) and an unacked ADD
        resurfacing is indistinguishable from a client retry.
        """
        index = self.append_unflushed(blob, sender_uid)
        try:
            self.commit_appended(index + 1, trace)
        except OSError:
            self.rollback_appended(index)
            raise
        return index

    def append_unflushed(self, blob: bytes, sender_uid: int) -> int:
        """The write phase: buffer the record under the append lock and
        return its index — **no durability yet** under either policy.
        The caller must follow up with :meth:`commit_appended` (outside
        any lock of its own) before acking; this is how the store keeps
        its metadata mirror in index-lockstep with the log without
        serializing group commits behind its lock.  A failed write is
        rolled back here; if even that fails the log marks itself broken
        and every further append raises cleanly."""
        record = pack_record(blob, sender_uid)
        with self._lock:
            if self._closed:
                raise ValueError("log is closed")
            if self._broken:
                raise OSError("log failed a write and could not roll back; "
                              "restart to recover")
            # Rotate *before* writing, so a rotation failure surfaces with
            # nothing of this record on disk yet.
            if self._tail_records >= self.segment_records:
                self._rotate_locked()
            index = self._count
            pos = self._file.tell()
            try:
                self._file.write(record)
            except OSError:
                self._rollback(pos)
                raise
            self._count = index + 1
            self._tail_records += 1
            self._last_pos = pos
        return index

    def commit_appended(self, target: int, trace=None) -> None:
        """The commit phase: make the first ``target`` records durable
        (group-committed under ``always``, a no-op under ``never``).  A
        failed fsync leaves the record in the log; the caller decides
        whether :meth:`rollback_appended` can take it back out."""
        if self.fsync_policy == FSYNC_ALWAYS:
            self._commit(target, trace)

    def rollback_appended(self, index: int) -> bool:
        """Best-effort undo of record ``index`` after its commit phase
        failed, for callers whose bookkeeping must stay in index-lockstep
        with the log.  Succeeds only when the record is still the newest
        one and no fsync covered it — otherwise the log is left untouched
        and ``False`` says "the record stays; reconcile around it"."""
        with self._lock:
            if (self._closed or self._broken or self._count != index + 1
                    or self._durable > index):
                return False
            self._rollback(self._last_pos)
            if self._broken:
                return False
            self._count = index
            if self._tail_records > 0:
                self._tail_records -= 1
            return True

    # --------------------------------------------------------- group commit
    def _commit(self, target: int, trace) -> None:
        """Block until an fsync covers the first ``target`` records.

        Exactly one thread holds the commit lock at a time; whoever gets
        it while ``target`` is still uncovered becomes the batch leader
        and fsyncs everything written so far.  Later appenders queueing on
        the lock usually find their record already covered and return
        without touching the disk — that wait *is* the group commit."""
        histogram = self._h_fsync
        timed = histogram is not None or trace is not None
        started = perf_counter() if timed else 0.0
        with self._commit_lock:
            # Lock-acquisition wait = riding someone else's batch: that
            # wait *is* the group commit, so it gets its own stage next
            # to the whole-commit wal_fsync stamp below.
            if timed:
                acquired = perf_counter()
                lock_wait = acquired - started
                if self._h_group is not None:
                    self._h_group.record(lock_wait)
                if trace is not None:
                    trace.stamp(STAGE_GROUP_COMMIT, lock_wait)
            if self._durable < target:
                self._fsync_batch_commit_locked()
        if timed:
            elapsed = perf_counter() - started
            if histogram is not None:
                histogram.record(elapsed)
            if trace is not None:
                trace.stamp(STAGE_WAL_FSYNC, elapsed)

    def _fsync_batch_commit_locked(self) -> None:
        """Leader path: flush the tail under the append lock, then fsync a
        dup of its descriptor *outside* it so concurrent appends keep
        buffering.  The dup keeps the open file description alive even if
        a rotation swaps the tail mid-fsync (the rotated-out segment was
        already fsynced by ``_rotate_locked``, so syncing it again is just
        a no-op)."""
        fd = -1
        try:
            with self._lock:
                if self._broken:
                    raise OSError("log failed a write and could not roll "
                                  "back; restart to recover")
                if self._file is None or self._file.closed:
                    raise OSError("log tail is not open")
                covered = self._count
                self._file.flush()
                fd = os.dup(self._file.fileno())
            os.fsync(fd)
            self._fsyncs_issued += 1
        finally:
            if fd >= 0:
                os.close(fd)
        if covered > self._durable:
            self._durable = covered

    def set_metrics(self, metrics) -> None:
        """Record fsync waits into the registry's ``stage.wal_fsync``
        histogram (and commit-leader waits into ``stage.group_commit``);
        no-op overhead when the null registry is attached."""
        if metrics.enabled:
            self._h_fsync = metrics.histogram(f"stage.{STAGE_WAL_FSYNC}")
            self._h_group = metrics.histogram(f"stage.{STAGE_GROUP_COMMIT}")
        else:
            self._h_fsync = None
            self._h_group = None

    def _rollback(self, pos: int) -> None:
        """Undo a failed append: drop any buffered bytes and cut the tail
        file back to ``pos``.  Reopening the handle is what discards the
        write buffer — otherwise its partial record could flush later,
        splicing garbage mid-log.

        If the close-time flush *also* fails, earlier buffered records
        (acked under ``never``) never reached the disk: the
        file is shorter than ``pos`` and truncating to ``pos`` would
        zero-fill a hole that poisons every later record.  There is no
        consistent state to continue from, so the log marks itself broken
        — restart recovers the on-disk prefix."""
        flushed = True
        try:
            self._file.close()
        except OSError:
            flushed = False
        if not flushed:
            self._broken = True
            log.error("rollback could not flush buffered records; log "
                      "disabled — restart recovers the on-disk prefix")
            return
        try:
            path = os.path.join(self.data_dir,
                                segment_filename(self._tail_seq))
            with open(path, "r+b") as fh:
                fh.truncate(pos)  # flush succeeded, so the file covers pos
            self._open_tail()
        except OSError:  # pragma: no cover - disk fully gone
            self._broken = True
            log.exception("could not roll back a failed append; "
                          "log marked broken")

    def flush(self) -> None:
        """Flush and fsync the tail regardless of policy."""
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if self._file is None or self._file.closed:
            return
        histogram = self._h_fsync
        started = perf_counter() if histogram is not None else 0.0
        self._file.flush()
        os.fsync(self._file.fileno())
        if histogram is not None:
            histogram.record(perf_counter() - started)
        if self._count > self._durable:
            self._durable = self._count

    # -------------------------------------------------------------- closing
    def close(self) -> None:
        """Flush + fsync the tail and release the handle."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._file is not None and not self._file.closed:
                self._flush_locked()
                self._file.close()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def record_count(self) -> int:
        return self._count

    @property
    def durable_count(self) -> int:
        """Records covered by a completed fsync (== ``record_count`` after
        any successful ``always`` append or explicit :meth:`flush`)."""
        return self._durable

    @property
    def fsyncs_issued(self) -> int:
        """Commit-phase fsyncs performed so far — compare against the
        append count to see group-commit batching in action."""
        return self._fsyncs_issued

    def segment_names(self) -> list[str]:
        """Current segment file names, in record order."""
        return [name for _, name in list_segments(self.data_dir)]
