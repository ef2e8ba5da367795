"""The signature store: durable sink + recovery source for the database.

:class:`SignatureStore` ties the pieces together:

* **appends** go to the :class:`~repro.store.wal.SegmentedLog` (one record
  per *accepted, non-duplicate* signature, in database-index order — the
  log is exactly the database's append history) along one path:
  :meth:`~SignatureStore.stage_append` under the caller's lock,
  :meth:`~SignatureStore.commit_staged` outside it (the group-committed
  fsync under ``always``), then :meth:`~SignatureStore.maybe_checkpoint`.
  :meth:`~SignatureStore.append` is those calls for a caller without a
  lock of its own;
* **checkpoints** snapshot the derived metadata (content hashes, top-frame
  locations, the next user id) into ``MANIFEST.json`` so a restart can
  load the checkpointed prefix without re-validating it;
* **opening** a data directory replays: segment files are scanned (CRC
  verified only past the checkpoint), torn tails truncated, and the
  records surface as four parallel **columns** — blobs, dedup hashes,
  sender uids and top frames — that
  :class:`~repro.server.database.SignatureDatabase` takes over in bulk
  (:meth:`~SignatureStore.recovered_columns`).  The prefix the manifest
  covers comes straight from its decoded columns; signature *parsing* is
  needed only for the tail records past it.  No per-record object is
  built on the way, and the cyclic GC is paused for the open.

A manifest that disagrees with the log (it claims more records than the
log actually holds — e.g. a checkpoint survived but log segments were
lost) is discarded and the whole log is replayed with full verification;
the log, not the manifest, is the source of truth.
"""

from __future__ import annotations

import gc
import os
import threading
from typing import NamedTuple

from repro.core.signature import DeadlockSignature, ORIGIN_REMOTE
from repro.store.checkpoint import (
    Manifest,
    append_manifest_delta,
    clear_manifest_delta,
    load_manifest_with_deltas,
    load_uid_watermark,
    write_manifest,
    write_uid_watermark,
)
from repro.store.wal import (
    DEFAULT_SEGMENT_RECORDS,
    SegmentedLog,
    check_fsync_policy,
)
from repro.util.errors import ValidationError
from repro.util.logging import get_logger

log = get_logger("store")


class StoreError(Exception):
    """Unrecoverable store inconsistency (a logic error, not crash damage;
    crash damage is always repaired silently)."""


class RecoveredEntry(NamedTuple):
    """One replayed record with everything the database needs to rebuild
    its in-memory state without re-deriving it."""

    index: int
    blob: bytes
    sig_id: str
    sender_uid: int
    top_frames: frozenset


class SignatureStore:
    """Open (recovering) a data directory; append; checkpoint; close."""

    def __init__(self, data_dir: str,
                 fsync: str = "always",
                 segment_records: int = DEFAULT_SEGMENT_RECORDS,
                 checkpoint_every: int = 0):
        self.data_dir = data_dir
        self.fsync_policy = check_fsync_policy(fsync)
        self.checkpoint_every = max(0, checkpoint_every)
        self._lock = threading.Lock()
        self._ckpt_lock = threading.Lock()  # one manifest writer at a time
        self._ckpt_failed_at = 0  # record count when a checkpoint last failed
        self._checkpoints_written = 0  # manifests/deltas written here
        self._provider = None  # duck-typed: __len__ + checkpoint_metadata
        self._next_uid = 1
        os.makedirs(data_dir, exist_ok=True)
        # Recovery allocates a few hundred thousand acyclic containers (the
        # manifest's decoded JSON); with the cyclic GC on, every generation
        # threshold they cross re-walks the growing heap for nothing.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            manifest = self._open_log(data_dir, segment_records)
        finally:
            if gc_was_enabled:
                gc.enable()
        if manifest:
            self._next_uid = max(self._next_uid, manifest.next_uid)
        # The eager sidecar outruns the periodic manifest: a token issued
        # right before kill -9 is covered by it alone.
        self._next_uid = max(self._next_uid, load_uid_watermark(data_dir))
        self._persisted_uid = self._next_uid
        self.recovery = self._log.recovery
        self.replayed_past_checkpoint = (
            len(self._blobs) - self._checkpoint_count
        )

    # ------------------------------------------------------------- recovery
    def _open_log(self, data_dir: str,
                  segment_records: int) -> Manifest | None:
        """Open the log against the effective manifest and rebuild the
        columns; returns the manifest recovery trusted (``None`` for a
        full validating replay)."""
        manifest = load_manifest_with_deltas(data_dir)
        if manifest and manifest.segment_records != segment_records:
            # The directory's segmentation is a property of its files, not
            # of this process's configuration: adopt what it was written
            # with (the log's seq/index math depends on it).
            log.warning(
                "data dir %s was written with %d records/segment; using "
                "that instead of the configured %d",
                data_dir, manifest.segment_records, segment_records,
            )
            segment_records = manifest.segment_records
        trusted = manifest.record_count if manifest else 0
        try:
            self._log = SegmentedLog(data_dir,
                                     segment_records=segment_records,
                                     fsync=self.fsync_policy,
                                     trusted_records=trusted)
        except ValueError as exc:
            raise StoreError(str(exc)) from exc
        try:
            if manifest and self._log.record_count < manifest.record_count:
                # The log lost records the checkpoint vouches for: the
                # manifest is stale/lying.  Re-open with nothing trusted
                # and replay everything with full verification.
                log.warning(
                    "manifest claims %d records but the log holds %d; "
                    "discarding checkpoint and fully replaying",
                    manifest.record_count, self._log.record_count,
                )
                self._log.close()
                manifest = None
                self._log = SegmentedLog(data_dir,
                                         segment_records=segment_records,
                                         fsync=self.fsync_policy)
            self._checkpoint_count = manifest.record_count if manifest else 0
            # record_count of the on-disk full MANIFEST.json (the delta
            # chain's anchor); None forces the next checkpoint to write a
            # fresh full manifest.
            self._manifest_base = (manifest.base_record_count
                                   if manifest else None)
            self._build_entries(*self._log.recovered_columns(), manifest)
        except Exception:
            self._log.close()  # don't leak the fd
            raise
        return manifest

    def _build_entries(self, uids: list[int], blobs: list[bytes],
                       manifest: Manifest | None) -> None:
        """Fill the four recovered columns.  The checkpointed prefix's
        metadata is the manifest's decoded columns as they are; only the
        records past it are parsed.  The log's uids column is the source of
        the per-user index, so the manifest carries none.

        ``_sig_ids`` / ``_uids`` / ``_top_frames`` then stay the store's
        per-record metadata mirrors (appends extend them) until a metadata
        provider takes them over; ``_blobs`` is handed out once."""
        sig_ids = manifest.sig_ids if manifest else []
        top_frames = manifest.top_frames if manifest else []
        for index in range(len(sig_ids), len(blobs)):
            try:
                signature = DeadlockSignature.from_bytes(
                    blobs[index], origin=ORIGIN_REMOTE
                )
            except ValidationError as exc:
                # CRC-valid but unparseable: the record was never a
                # validated signature, which only a writer bug produces.
                raise StoreError(
                    f"record {index} is checksummed but not a valid "
                    f"signature: {exc}"
                ) from exc
            sig_ids.append(signature.sig_id)
            top_frames.append(signature.top_frames)
        self._blobs = blobs
        self._sig_ids = sig_ids
        self._uids = uids
        self._top_frames = top_frames
        if uids:
            self._next_uid = max(self._next_uid, max(uids) + 1)

    def recovered_columns(self) -> tuple[list[bytes], list[str],
                                         list[int], list[frozenset]]:
        """The replayed records as four parallel columns ``(blobs,
        sig_ids, uids, top_frames)`` — the database's bulk load (consumed
        once: a second call returns empty columns).

        The three metadata columns are the store's own mirrors, shared
        rather than copied: the caller must attach itself with
        :meth:`set_metadata_provider` before the next append, which drops
        the store's references."""
        blobs, self._blobs = self._blobs, []
        if not blobs:
            return [], [], [], []
        return blobs, self._sig_ids, self._uids, self._top_frames

    def recovered_entries(self) -> list[RecoveredEntry]:
        """:meth:`recovered_columns` as entries (consumed once); the store
        keeps its mirrors."""
        columns = self.recovered_columns()
        return list(map(RecoveredEntry, range(len(columns[0])), *columns))

    def set_metadata_provider(self, provider) -> None:
        """Stop mirroring per-record metadata; pull it from ``provider``
        at checkpoint time instead.

        ``provider`` (in practice the
        :class:`~repro.server.database.SignatureDatabase` writing through
        this store) must expose ``__len__`` and
        ``checkpoint_metadata(lo, hi)`` returning the ``(sig_ids,
        top_frames)`` columns of those records, frames as sorted tuples.
        The database took the store's ``_sig_ids`` / ``_top_frames`` /
        ``_uids`` lists over at replay, so dropping the store's references
        leaves one copy of the metadata, not two, at million-signature
        scale.  The provider must be in lockstep with the log when
        attached (the database attaches itself right after replaying this
        store)."""
        with self._lock:
            if len(provider) != self._log.record_count:
                raise StoreError(
                    f"metadata provider holds {len(provider)} records but "
                    f"the log holds {self._log.record_count}; attach it "
                    "only when in lockstep"
                )
            self._provider = provider
            self._sig_ids = None
            self._top_frames = None
            self._uids = None

    def set_metrics(self, metrics) -> None:
        """Attach an observability registry (see :mod:`repro.obs`): the
        WAL's fsync waits land in the ``stage.wal_fsync`` histogram and
        checkpoints are counted.  The server calls this on whatever store
        it is given, so caller-constructed stores are covered too."""
        self._log.set_metrics(metrics)
        metrics.register_counter("store.checkpoints",
                                 lambda: self._checkpoints_written)
        metrics.register_gauge("store.records",
                               lambda: self._log.record_count)

    # -------------------------------------------------------------- writing
    def append(self, blob: bytes, sig_id: str, sender_uid: int,
               top_frames: frozenset, trace=None) -> int:
        """Log one accepted signature; returns its record index.

        The same stage / commit / checkpoint calls the database makes, in
        its order: under the ``always`` policy the record is fsynced
        before this returns — the caller may ack the ADD the moment it
        does.
        """
        index = self.stage_append(blob, sig_id, sender_uid, top_frames)
        try:
            self.commit_staged(index + 1, trace=trace)
        except OSError:
            # The record never became durable and the caller will treat
            # this append as failed — undo it (log + mirrors) so the
            # layers stay in lockstep, when the log still can.
            self.rollback_staged(index)
            raise
        self.maybe_checkpoint()
        return index

    def stage_append(self, blob: bytes, sig_id: str, sender_uid: int,
                     top_frames: frozenset) -> int:
        """The write phase: buffer the record and return its index — **no
        durability yet**.  Callers that hold their own append lock (the
        database) stage under it, then :meth:`commit_staged` outside it
        (group-committed with every other in-flight append), then
        publish; a failed commit goes through :meth:`rollback_staged`.

        Log write and metadata mirror happen under one lock, so concurrent
        appenders cannot interleave them: ``_sig_ids[i]`` always describes
        log record ``i`` (checkpoints depend on it)."""
        with self._lock:
            index = self._log.append_unflushed(blob, sender_uid)
            if self._provider is None:
                self._sig_ids.append(sig_id)
                self._top_frames.append(top_frames)
                self._uids.append(sender_uid)
            self._next_uid = max(self._next_uid, sender_uid + 1)
            return index

    def commit_staged(self, target: int, trace=None) -> None:
        """Block until the first ``target`` staged records are durable
        (one group-committed fsync under ``always``; immediate under
        ``never``)."""
        self._log.commit_appended(target, trace=trace)

    def rollback_staged(self, index: int) -> bool:
        """Undo a staged record whose commit failed, if it is still the
        newest and no fsync covered it; mirrors are trimmed with it.
        ``False`` means the record stays in the log (unacked) and the
        caller reconciles around it."""
        with self._lock:
            rolled = self._log.rollback_appended(index)
            if rolled and self._provider is None:
                del self._sig_ids[index:]
                del self._top_frames[index:]
                del self._uids[index:]
            return rolled

    def maybe_checkpoint(self) -> None:
        """Run a cadence checkpoint if ``checkpoint_every`` records have
        accumulated since the last one.

        Called once per committed append — by :meth:`append`, or by the
        database right after it publishes the entry (the only moment both
        layers agree on the full count).  Best-effort: the records being
        covered are already durable in the log, so a failed manifest
        write must not turn an ackable append into an error; restart just
        replays a longer tail.  After a failure the next try waits for
        another ``checkpoint_every`` records rather than rebuilding (and
        failing) on every append while the disk is sick."""
        with self._lock:
            watermark = max(self._checkpoint_count, self._ckpt_failed_at)
            if (not self.checkpoint_every
                    or self._log.record_count - watermark
                    < self.checkpoint_every):
                return
        try:
            self.checkpoint()
        except OSError:
            with self._lock:
                self._ckpt_failed_at = self._log.record_count
            log.exception("checkpoint failed; continuing with the "
                          "previous manifest")

    def note_next_uid(self, next_uid: int) -> None:
        """Raise the uid watermark and persist it *eagerly* (called on
        token issue, so a restart — even ``kill -9`` before the next
        checkpoint — never re-issues a uid that only ever fetched a
        token).  Token issue is off the ADD/GET hot path (once per
        client), so the fsync per fresh uid is affordable."""
        with self._lock:
            self._next_uid = max(self._next_uid, next_uid)
            if self._next_uid <= self._persisted_uid:
                return
            value = self._next_uid
        # Write outside the lock: the sidecar fsync must not stall
        # concurrent ADD appends.  Best-effort — the in-memory watermark
        # stays raised either way and the next checkpoint covers it.
        try:
            write_uid_watermark(self.data_dir, value)
        except OSError:
            log.exception("uid watermark write failed; the next "
                          "checkpoint will persist it instead")
            return
        with self._lock:
            self._persisted_uid = max(self._persisted_uid, value)

    # ---------------------------------------------------------- checkpoints
    def _metadata_slice(self, lo: int, hi: int
                        ) -> tuple[list[str], list[tuple]]:
        """The ``(sig_ids, top_frames)`` columns of records ``[lo, hi)``,
        frames sorted into tuples for the manifest, from the provider
        (append-only, so a bare slice is safe) or the local mirrors."""
        if self._provider is not None:
            return self._provider.checkpoint_metadata(lo, hi)
        with self._lock:
            sig_ids = self._sig_ids[lo:hi]
            frames = self._top_frames[lo:hi]
        return sig_ids, [tuple(sorted(f)) for f in frames]

    def checkpoint(self, full: bool = False) -> Manifest | None:
        """Flush the log, then persist a checkpoint.

        The first checkpoint of a data dir (and any ``full=True`` call —
        :meth:`close` forces one) atomically rewrites ``MANIFEST.json``.
        Every other call appends a **delta line** covering only the
        records since the previous checkpoint — O(delta) instead of the
        O(history) full-manifest rewrite that used to stall the appending
        worker once the store grew past ~50k signatures.  Returns the
        manifest for full writes, ``None`` for deltas.

        The count is snapshotted *before* the flush, so the checkpoint
        never vouches for a record the log has not made durable — an
        append that lands between the snapshot and the flush is simply
        covered by the next checkpoint (matters under ``never``).
        """
        with self._ckpt_lock:  # one checkpoint writer at a time
            with self._lock:
                # A concurrent append may have hit the log but not yet
                # mirrored its metadata (or reached the database when a
                # provider is attached); checkpoint what both layers
                # agree on.
                mirrored = (len(self._provider) if self._provider is not None
                            else len(self._sig_ids))
                count = min(self._log.record_count, mirrored)
                next_uid = self._next_uid
            covered = self._checkpoint_count
            base = self._manifest_base
            if (not full and base is not None and base <= covered < count):
                sig_ids, frames = self._metadata_slice(covered, count)
                self._log.flush()  # records [0, count) durable past here
                append_manifest_delta(self.data_dir, base, covered, sig_ids,
                                      frames, next_uid)
                with self._lock:
                    self._checkpoint_count = max(self._checkpoint_count,
                                                 count)
                    self._checkpoints_written += 1
                return None
            sig_ids, frames = self._metadata_slice(0, count)
            manifest = Manifest(
                record_count=count,
                segment_records=self._log.segment_records,
                segments=self._log.segment_names(),
                sig_ids=sig_ids,
                top_frames=frames,
                next_uid=next_uid,
            )
            self._log.flush()  # records [0, count) durable past this line
            write_manifest(self.data_dir, manifest)
            # The delta chain extended the *previous* base; now redundant
            # (and would mis-compose over the new one).
            clear_manifest_delta(self.data_dir)
            self._manifest_base = count
            with self._lock:
                self._checkpoint_count = max(self._checkpoint_count, count)
                self._checkpoints_written += 1
        return manifest

    # -------------------------------------------------------------- closing
    def flush(self) -> None:
        """Make everything appended so far durable (any policy)."""
        if not self._log.closed:
            self._log.flush()

    def close(self, final_checkpoint: bool = True) -> None:
        """Seal the store: final checkpoint (by default) and close the log.

        The log closes even when the checkpoint fails (its close flushes
        what the manifest could not vouch for) — a failed final checkpoint
        must not leak the tail handle or leave the store half-open."""
        if self._log.closed:
            return
        try:
            if final_checkpoint:
                # Full, so restarts load one file and the delta chain
                # (bounded only by uptime between closes) is reset.
                self.checkpoint(full=True)
        finally:
            self._log.close()

    @property
    def closed(self) -> bool:
        return self._log.closed

    # ---------------------------------------------------------------- stats
    @property
    def record_count(self) -> int:
        return self._log.record_count

    @property
    def durable_count(self) -> int:
        """Records an fsync provably covers (== record_count under
        ``always`` once every append has returned)."""
        return self._log.durable_count

    @property
    def fsyncs_issued(self) -> int:
        """Commit-phase fsyncs the log performed — the group-commit
        batching ratio is ``record_count / fsyncs_issued``."""
        return self._log.fsyncs_issued

    @property
    def checkpoint_count(self) -> int:
        """Records covered by the newest durable checkpoint."""
        return self._checkpoint_count

    @property
    def next_uid(self) -> int:
        return self._next_uid
