"""Response-level cache for hot paginated GET pages (database layer)."""

import threading

import pytest

from repro.server.database import SignatureDatabase, _PageCache
from repro.server.protocol import decode_get_page, encode_get_page_response


def fill(db, factory, n, uid_start=0):
    sigs = []
    for i in range(n):
        sig = factory.make_valid()
        db.append(sig, sig.to_bytes(), uid_start + i)
        sigs.append(sig)
    return sigs


def frame(db, start, max_count):
    """The complete wire frame the transport would send for this page."""
    next_index, count, chunks, more = db.wire_from(start, max_count)
    return encode_get_page_response(next_index, count, chunks, more)


def uncached_frame(db, start, max_count):
    """The same frame computed straight from the segments (no page cache)."""
    next_index, count, chunks, more = db._wire_range(start, max_count)
    return encode_get_page_response(next_index, count, chunks, more)


class TestPageCache:
    def test_hot_page_is_a_cache_hit_with_identical_bytes(self, shared_factory):
        db = SignatureDatabase(segment_size=4)
        fill(db, shared_factory, 10)
        first = frame(db, 0, 4)
        hits_before = db.page_cache_hits
        second = frame(db, 0, 4)
        assert second == first
        assert db.page_cache_hits == hits_before + 1
        # The cached answer reuses the identical chunk objects (no rebuild).
        assert db.wire_from(0, 4)[2] is db.wire_from(0, 4)[2]

    def test_append_invalidates_and_frames_stay_byte_identical(
            self, shared_factory):
        """The satellite contract: frames served through the cache are
        byte-identical to uncached computation both before and after an
        append-driven invalidation."""
        db = SignatureDatabase(segment_size=4)
        reference = SignatureDatabase(segment_size=4)
        sigs = fill(db, shared_factory, 6)
        for i, sig in enumerate(sigs):
            reference.append(sig, sig.to_bytes(), i)

        # Warm the cache, then check against a never-cached computation.
        warm = frame(db, 4, 4)
        assert frame(db, 4, 4) == warm  # hit
        assert warm == uncached_frame(reference, 4, 4)

        # Append: the tail page's answer changes and must be recomputed.
        extra = fill(db, shared_factory, 1, uid_start=100)
        for sig in extra:
            reference.append(sig, sig.to_bytes(), 100)
        after = frame(db, 4, 4)
        assert after != warm
        next_index, blobs, more = decode_get_page(after)
        assert (next_index, len(blobs), more) == (7, 3, False)
        assert after == uncached_frame(reference, 4, 4)

    def test_more_flag_flips_after_append(self, shared_factory):
        db = SignatureDatabase(segment_size=4)
        fill(db, shared_factory, 4)
        assert db.wire_from(0, 4)[3] is False  # cached with more=False
        fill(db, shared_factory, 1, uid_start=50)
        assert db.wire_from(0, 4)[3] is True   # invalidated, recomputed

    def test_capacity_is_bounded_fifo(self, shared_factory):
        db = SignatureDatabase(segment_size=2, page_cache_capacity=3)
        fill(db, shared_factory, 10)
        for start in range(5):
            db.wire_from(start, 2)
        assert len(db._page_cache._entries) == 3
        # The oldest key was evicted; re-reading it is a miss again.
        misses_before = db.page_cache_misses
        db.wire_from(0, 2)
        assert db.page_cache_misses == misses_before + 1

    def test_stale_put_after_invalidation_is_dropped(self):
        cache = _PageCache()
        version = cache.version
        cache.invalidate()  # an append landed mid-computation
        cache.put((0, 4), (4, 4, (), False), version)
        assert cache.get((0, 4)) is None

    def test_concurrent_appends_never_serve_stale_pages(self, shared_factory):
        """Readers hammering one page while a writer appends must always
        see a frame consistent with some published database size."""
        db = SignatureDatabase(segment_size=4)
        fill(db, shared_factory, 4)
        stop = threading.Event()
        bad = []

        def reader():
            while not stop.is_set():
                next_index, count, chunks, more = db.wire_from(0, 4)
                frame_bytes = encode_get_page_response(
                    next_index, count, chunks, more
                )
                decoded_next, blobs, _ = decode_get_page(frame_bytes)
                if len(blobs) != count or decoded_next != next_index:
                    bad.append((len(blobs), count))  # pragma: no cover

        threads = [threading.Thread(target=reader, daemon=True)
                   for _ in range(2)]
        for t in threads:
            t.start()
        try:
            fill(db, shared_factory, 30, uid_start=200)
        finally:
            stop.set()
            for t in threads:
                t.join(5.0)
        assert not bad
