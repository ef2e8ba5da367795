"""The server's signature database — sharded, append-only, index-addressed.

``GET(k)`` returns signatures from database index ``k`` on, which is what
makes client downloads incremental (§III-B).  Entries are kept as
*serialized blobs*: an append-only store never re-serializes.

The store is split into fixed-size **segments** (lock striping).  Each
segment caches two immutable views of its contents:

* a *snapshot* tuple of blobs, for in-process readers;
* a *wire cache* — the segment's blobs already composed into the GET
  response record layout (``len:u32 | blob`` per signature) — so a hot
  ``GET`` over a warm database is O(segments) cache lookups and one join,
  not an O(n) list copy plus per-blob packing.

Appends touch only the tail segment (invalidating only its caches); sealed
segments are effectively frozen, so their caches live forever.  A global
monotonic count is published *after* the blob is in place, so readers that
snapshot the count never observe a missing entry.

On top of the segment caches sits a **response-level page cache**
(:class:`_PageCache`): the complete answer to a paginated
``GET(from_index, max_count)`` keyed by the request arguments.  Cold-sync
clients all walk the same segment-aligned page sequence, so a hot page is
a single dict lookup; every append invalidates the whole page cache (the
tail page and ``more`` flags may have changed) and pages rebuild lazily.

Per-record metadata lives in three parallel columns (``sig_id``, sender
uid, top-frame set) beside the segments' blobs; a per-user side index over
them supports the adjacency check (§III-C2) without deserializing history.
:meth:`SignatureDatabase.entry` assembles one record on demand.

The database is memory-first but optionally **durable**: give it a
:class:`~repro.store.SignatureStore` and construction takes the store's
recovered columns over in bulk — the metadata lists as they are, the
blobs sliced into sealed segments, the dedup map and the per-user
adjacency index built in one pass each.  Every append, with a store or
without, takes the same staged path: stage the entry (and the log record)
under the append lock, commit the store outside it — the group-committed
fsync under ``always``, skipped when there is no store — then publish, so
an acked ADD survives ``kill -9`` and concurrent ADDs share one fsync.
The disk write happens on whatever thread calls :meth:`append` (the
server's worker pool), never on the transport's event loop.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.core.signature import DeadlockSignature
from repro.server.protocol import pack_signature_record
from repro.util.logging import get_logger

log = get_logger("server.database")

#: Signatures per segment.  A 2-thread signature is ~1.7 KB (paper §IV-A),
#: so a sealed segment's wire cache is ~1.7 MB — large enough that a full
#: GET is a handful of chunks, small enough that tail invalidation is cheap.
DEFAULT_SEGMENT_SIZE = 1024


@dataclass(frozen=True)
class StoredSignature:
    index: int
    blob: bytes
    sig_id: str
    sender_uid: int
    top_frames: frozenset


class _Segment:
    """One stripe of the database: its own lock and cached read views."""

    __slots__ = ("base", "lock", "blobs", "_snapshot", "_wire")

    def __init__(self, base: int):
        self.base = base
        self.lock = threading.Lock()
        self.blobs: list[bytes] = []
        self._snapshot: tuple[bytes, ...] | None = None
        self._wire: bytes | None = None  # records for the snapshot's blobs

    def append(self, blob: bytes) -> None:
        with self.lock:
            self.blobs.append(blob)
            self._snapshot = None
            self._wire = None

    def pop(self) -> None:
        with self.lock:
            self.blobs.pop()
            self._snapshot = None
            self._wire = None

    def snapshot(self, upto: int) -> tuple[bytes, ...]:
        """An immutable view of this segment's first ``upto`` blobs."""
        snap = self._snapshot
        if snap is None or len(snap) < upto:
            with self.lock:
                snap = self._snapshot
                if snap is None or len(snap) < upto:
                    snap = tuple(self.blobs)
                    self._snapshot = snap
        return snap if len(snap) == upto else snap[:upto]

    def wire(self, upto: int) -> bytes:
        """The first ``upto`` blobs in GET record layout; cached when
        ``upto`` covers the whole cached snapshot (always true for sealed
        segments, and for the tail between appends)."""
        snap = self.snapshot(upto)
        wire = self._wire
        if wire is not None and self._snapshot is snap and len(snap) == upto:
            return wire
        data = b"".join(pack_signature_record(blob) for blob in snap)
        with self.lock:
            if self._snapshot is snap:
                self._wire = data
        return data

    def wire_slice(self, lo: int, hi: int) -> bytes:
        """Records for blobs[lo:hi] — the uncached partial-segment path,
        used only at the boundaries of a range."""
        if lo == 0:
            return self.wire(hi)
        snap = self.snapshot(hi)
        return b"".join(pack_signature_record(blob) for blob in snap[lo:hi])


class _PageCache:
    """Response-level cache for hot paginated GET pages.

    Keyed by the request's ``(from_index, max_count)``; the value is the
    complete precomputed answer ``(next_index, count, chunks, more)``, so a
    hot page — every cold-syncing client walks the same segment-aligned
    page sequence — costs one dict lookup instead of a segment walk plus
    boundary packing.  An append can change any page's answer (the tail
    gains records, ``more`` can flip), so appends invalidate the whole
    cache; entries are rebuilt lazily on the next request.  A version
    stamp taken *before* a page is computed keeps a concurrent append from
    letting a stale page be inserted after the invalidation.
    """

    __slots__ = ("_lock", "_entries", "_capacity", "_version",
                 "hits", "misses")

    def __init__(self, capacity: int = 128):
        self._lock = threading.Lock()
        self._entries: dict[tuple[int, int], tuple] = {}
        self._capacity = capacity
        self._version = 0
        self.hits = 0
        self.misses = 0

    @property
    def version(self) -> int:
        return self._version

    def get(self, key: tuple[int, int]):
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
            return value

    def put(self, key: tuple[int, int], value: tuple, version: int) -> None:
        with self._lock:
            if version != self._version:
                return  # an append landed while this page was computed
            entries = self._entries
            if key not in entries and len(entries) >= self._capacity:
                entries.pop(next(iter(entries)))  # FIFO eviction
            entries[key] = value

    def invalidate(self) -> None:
        with self._lock:
            self._version += 1
            self._entries.clear()


class SignatureDatabase:
    def __init__(self, segment_size: int = DEFAULT_SEGMENT_SIZE,
                 page_cache_capacity: int = 128, store=None):
        """``store`` is an optional :class:`~repro.store.SignatureStore`:
        its recovered columns are taken over here, and every
        subsequent accepted append is written through to it."""
        if segment_size < 1:
            raise ValueError("segment_size must be positive")
        self._segment_size = segment_size
        self._append_lock = threading.Lock()
        self._segments: list[_Segment] = [_Segment(0)]
        self._count = 0  # published last; readers snapshot it lock-free
        # One slot per staged entry, index-aligned (blobs live in the
        # segments).
        self._sig_ids: list[str] = []
        self._uids: list[int] = []
        self._top_frames: list[frozenset] = []
        self._by_sig_id: dict[str, int] = {}
        self._by_user: dict[int, list[int]] = {}  # uid -> entry indices
        self._page_cache = _PageCache(page_cache_capacity)
        self._store = store
        self.replayed_count = 0
        if store is not None:
            self._replay_store(store)
            # From here on the store pulls (sig_id, top_frames, uid) from
            # this database at checkpoint time instead of keeping its own
            # per-record mirrors — one copy of the metadata, not two, at
            # million-signature scale.
            store.set_metadata_provider(self)

    def _replay_store(self, store) -> None:
        """Take the store's recovered columns over in bulk (no re-logging:
        these records are already on disk).  The metadata lists become
        this database's own without a copy."""
        blobs, sig_ids, uids, top_frames = store.recovered_columns()
        n = len(blobs)
        by_sig_id = dict(zip(sig_ids, range(n)))
        if len(by_sig_id) < n:
            # A healthy log never holds duplicates; if one appears anyway,
            # keeping it keeps database indices aligned with log indices
            # (skipping would desync them and poison every later append).
            # The later index wins the dedup map, as an append would.
            seen: set[str] = set()
            for index, sig_id in enumerate(sig_ids):
                if sig_id in seen:
                    log.warning("duplicate sig_id %s at log record %d; "
                                "keeping both", sig_id, index)
                seen.add(sig_id)
        by_user: dict[int, list[int]] = {}
        for index, uid in enumerate(uids):
            by_user.setdefault(uid, []).append(index)
        size = self._segment_size
        segments = []
        for base in range(0, n, size):
            segment = _Segment(base)
            segment.blobs = blobs[base:base + size]
            segments.append(segment)
        with self._append_lock:
            if segments:
                self._segments = segments
            self._sig_ids = sig_ids
            self._uids = uids
            self._top_frames = top_frames
            self._by_sig_id = by_sig_id
            self._by_user = by_user
            self._count = n
            self.replayed_count = n
            self._page_cache.invalidate()

    @property
    def store(self):
        return self._store

    def __len__(self) -> int:
        return self._count

    @property
    def next_index(self) -> int:
        return self._count

    @property
    def segment_size(self) -> int:
        return self._segment_size

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    # ------------------------------------------------------------- writing
    def append(self, signature: DeadlockSignature, blob: bytes,
               sender_uid: int, trace=None) -> int:
        """Store a validated signature; returns its database index.

        Duplicate signatures (same content hash) are not stored twice; the
        existing index is returned — many users reporting the same deadlock
        is the expected steady state.  ``trace`` rides down to the store
        so the WAL can stamp its fsync wait.

        One path, in three phases, so concurrent ADDs share one
        group-committed fsync instead of serializing behind the append
        lock: (1) stage — the log's write phase plus the in-memory entry,
        invisible to readers until ``_count`` publishes it; (2) commit —
        the fsync, *outside* the append lock (skipped without a store);
        (3) publish.  Durability before visibility holds: ``_count`` only
        ever advances over fsync-covered records (the log's durable
        prefix is monotone, so a later committer publishing past an
        earlier stager's record is sound).
        """
        store = self._store
        with self._append_lock:
            existing = self._by_sig_id.get(signature.sig_id)
            if existing is not None and existing < self._count:
                return existing
            if existing is not None:
                # A concurrent append staged this signature and its fsync
                # is in flight; wait for the same group commit below —
                # acking a duplicate must not outrun its durability.
                index = existing
            else:
                index = len(self._sig_ids)
                if store is not None:
                    logged = store.stage_append(blob, signature.sig_id,
                                                sender_uid,
                                                signature.top_frames)
                    if logged != index:  # pragma: no cover - logic guard
                        raise RuntimeError(
                            f"store index {logged} diverged from database "
                            f"index {index}"
                        )
                self._stage_locked(blob, signature.sig_id, sender_uid,
                                   signature.top_frames)
        if store is not None:
            try:
                store.commit_staged(index + 1, trace=trace)
            except OSError:
                with self._append_lock:
                    # Undo the stage when the log could (newest record, no
                    # covering fsync — then stage order makes ours newest
                    # here too).  Otherwise the record stays in the log
                    # unacked; a later publish or a restart replay
                    # surfaces it, which is indistinguishable from a
                    # client retry.
                    if (store.rollback_staged(index)
                            and len(self._sig_ids) == index + 1):
                        self._unstage_locked(index)
                raise
        with self._append_lock:
            if index >= len(self._sig_ids) or (
                    self._sig_ids[index] != signature.sig_id):
                # The stager this duplicate piggybacked on rolled its
                # record back after the group fsync failed.
                raise OSError("append was rolled back by a failed "
                              "group commit")
            if index >= self._count:
                self._count = index + 1
                self._page_cache.invalidate()
        if store is not None:
            # As the store's metadata provider, this database drives the
            # checkpoint cadence: only now — entry published — do both
            # layers agree on the full count.
            store.maybe_checkpoint()
        return index

    def checkpoint_metadata(self, lo: int, hi: int
                            ) -> tuple[list[str], list[tuple]]:
        """The ``(sig_ids, top_frames)`` columns of entries ``[lo, hi)``,
        frames as sorted tuples — the store's checkpoint metadata source
        once it attaches this database as its provider.  The columns are
        append-only and ``hi`` never exceeds the published count, so the
        slices need no lock."""
        return (self._sig_ids[lo:hi],
                [tuple(sorted(f)) for f in self._top_frames[lo:hi]])

    def _stage_locked(self, blob: bytes, sig_id: str, sender_uid: int,
                      top_frames: frozenset) -> int:
        """In-memory append *without* publication: the entry exists (so
        log order and database order stay in lockstep, and a concurrent
        duplicate finds it) but every reader is gated on ``_count``, which
        the caller advances only once the record is durable."""
        index = len(self._sig_ids)
        tail = self._segments[-1]
        if len(tail.blobs) >= self._segment_size:
            tail = _Segment(index)
            self._segments.append(tail)
        tail.append(blob)
        self._sig_ids.append(sig_id)
        self._uids.append(sender_uid)
        self._top_frames.append(top_frames)
        self._by_sig_id[sig_id] = index
        self._by_user.setdefault(sender_uid, []).append(index)
        return index

    def _unstage_locked(self, index: int) -> None:
        """Undo the newest :meth:`_stage_locked` after its group commit
        failed and the log rolled the record back (caller holds
        ``_append_lock`` and has checked the entry is still the newest
        and unpublished)."""
        sig_id = self._sig_ids.pop()
        uid = self._uids.pop()
        self._top_frames.pop()
        if self._by_sig_id.get(sig_id) == index:
            del self._by_sig_id[sig_id]
        indices = self._by_user.get(uid)
        if indices and indices[-1] == index:
            indices.pop()
            if not indices:
                del self._by_user[uid]
        tail = self._segments[-1]
        tail.pop()
        if not tail.blobs and len(self._segments) > 1:
            self._segments.pop()

    # ------------------------------------------------------------- reading
    def _range(self, start: int, max_count: int) -> tuple[int, int, int]:
        """(start, end, next_index) for a read of ``max_count`` from
        ``start`` against the current published count."""
        n = self._count
        start = min(max(0, start), n)
        return start, min(n, start + max(0, max_count)), n

    def _segments_for(self, start: int, end: int):
        """Yield (segment, lo, hi) triples covering [start, end)."""
        size = self._segment_size
        for seg_index in range(start // size, (end - 1) // size + 1):
            seg = self._segments[seg_index]
            lo = max(0, start - seg.base)
            hi = min(size, end - seg.base)
            yield seg, lo, hi

    def blobs_page(self, start: int, max_count: int
                   ) -> tuple[int, list[bytes], bool]:
        """(next_index, blobs, more) for ``GET(start, max_count)``.

        ``next_index`` is the resume point (index just past the last blob
        returned); ``more`` says whether the database held further entries
        at read time.
        """
        start, end, n = self._range(start, max_count)
        if start >= end:
            return end, [], end < n
        blobs: list[bytes] = []
        for seg, lo, hi in self._segments_for(start, end):
            blobs.extend(seg.snapshot(hi)[lo:hi])
        return end, blobs, end < n

    def wire_from(self, start: int, max_count: int
                  ) -> tuple[int, int, tuple[bytes, ...], bool]:
        """(next_index, count, chunks, more): the GET response body as
        precomposed record chunks — one cached chunk per fully-covered
        segment — served through the response-level page cache, so a hot
        page is one dict lookup."""
        key = (start, max_count)
        cached = self._page_cache.get(key)
        if cached is not None:
            return cached
        version = self._page_cache.version
        result = self._wire_range(start, max_count)
        self._page_cache.put(key, result, version)
        return result

    def _wire_range(self, start: int, max_count: int
                    ) -> tuple[int, int, tuple[bytes, ...], bool]:
        start, end, n = self._range(start, max_count)
        if start >= end:
            return end, 0, (), end < n
        chunks: list[bytes] = []
        for seg, lo, hi in self._segments_for(start, end):
            chunks.append(seg.wire(hi) if lo == 0 else seg.wire_slice(lo, hi))
        return end, end - start, tuple(chunks), end < n

    @property
    def page_cache_hits(self) -> int:
        return self._page_cache.hits

    @property
    def page_cache_misses(self) -> int:
        return self._page_cache.misses

    def user_top_frames(self, uid: int) -> list[frozenset]:
        """Top-frame sets of every signature this user previously sent."""
        top_frames = self._top_frames
        return [top_frames[i] for i in self._by_user.get(uid, ())]

    def entry(self, index: int) -> StoredSignature:
        """Entry ``index``, assembled from the columns."""
        index = range(len(self._sig_ids))[index]  # IndexError, negatives
        segment = self._segments[index // self._segment_size]
        return StoredSignature(index, segment.blobs[index - segment.base],
                               self._sig_ids[index], self._uids[index],
                               self._top_frames[index])

    def contains(self, sig_id: str) -> bool:
        return sig_id in self._by_sig_id
