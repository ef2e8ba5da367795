"""Signature database tests."""

import threading

from repro.server.database import SignatureDatabase


def store(db, factory, uid=1, n=1):
    out = []
    for _ in range(n):
        sig = factory.make_valid()
        out.append(db.append(sig, sig.to_bytes(), uid))
    return out


class TestAppend:
    def test_indices_sequential(self, shared_factory):
        db = SignatureDatabase()
        indices = store(db, shared_factory, n=3)
        assert indices == [0, 1, 2]
        assert len(db) == 3
        assert db.next_index == 3

    def test_duplicate_returns_existing_index(self, shared_factory):
        db = SignatureDatabase()
        sig = shared_factory.make_valid()
        first = db.append(sig, sig.to_bytes(), 1)
        second = db.append(sig, sig.to_bytes(), 2)
        assert first == second
        assert len(db) == 1

    def test_contains(self, shared_factory):
        db = SignatureDatabase()
        sig = shared_factory.make_valid()
        db.append(sig, sig.to_bytes(), 1)
        assert db.contains(sig.sig_id)
        assert not db.contains("nope")


class TestPublishListeners:
    def test_listener_fires_per_published_entry(self, shared_factory):
        db = SignatureDatabase()
        fired = []
        db.add_publish_listener(lambda: fired.append(len(db)))
        store(db, shared_factory, n=3)
        # Fired after _count advanced: each callback saw the new entry.
        assert fired == [1, 2, 3]

    def test_duplicate_append_does_not_notify(self, shared_factory):
        db = SignatureDatabase()
        fired = []
        db.add_publish_listener(lambda: fired.append(True))
        sig = shared_factory.make_valid()
        db.append(sig, sig.to_bytes(), 1)
        db.append(sig, sig.to_bytes(), 2)  # dedup: nothing new published
        assert fired == [True]

    def test_apply_replicated_notifies(self, shared_factory):
        source = SignatureDatabase()
        store(source, shared_factory, n=2)
        replica = SignatureDatabase()
        fired = []
        replica.add_publish_listener(lambda: fired.append(len(replica)))
        for i in range(2):
            entry = source.entry(i)
            replica.apply_replicated(entry.index, entry.blob,
                                     entry.sender_uid)
        assert fired == [1, 2]

    def test_failing_listener_does_not_poison_appends(self, shared_factory):
        db = SignatureDatabase()

        def bad():
            raise RuntimeError("boom")

        fired = []
        db.add_publish_listener(bad)
        db.add_publish_listener(lambda: fired.append(True))
        store(db, shared_factory, n=2)
        assert fired == [True, True]
        assert len(db) == 2


class TestGet:
    def test_page_from_zero(self, shared_factory):
        db = SignatureDatabase()
        store(db, shared_factory, n=4)
        next_index, blobs, _ = db.blobs_page(0, 100)
        assert next_index == 4
        assert len(blobs) == 4

    def test_incremental_get(self, shared_factory):
        db = SignatureDatabase()
        store(db, shared_factory, n=4)
        next_index, blobs, _ = db.blobs_page(2, 100)
        assert next_index == 4
        assert len(blobs) == 2

    def test_get_past_end_empty(self, shared_factory):
        db = SignatureDatabase()
        store(db, shared_factory, n=2)
        next_index, blobs, _ = db.blobs_page(10, 100)
        assert blobs == []
        assert next_index == 2

    def test_negative_start_clamped(self, shared_factory):
        db = SignatureDatabase()
        store(db, shared_factory, n=2)
        _, blobs, _ = db.blobs_page(-5, 100)
        assert len(blobs) == 2

    def test_blobs_are_original_bytes(self, shared_factory):
        db = SignatureDatabase()
        sig = shared_factory.make_valid()
        blob = sig.to_bytes()
        db.append(sig, blob, 1)
        _, blobs, _ = db.blobs_page(0, 100)
        assert blobs[0] == blob


class TestUserIndex:
    def test_user_top_frames_tracked(self, shared_factory):
        db = SignatureDatabase()
        store(db, shared_factory, uid=1, n=2)
        store(db, shared_factory, uid=2, n=1)
        assert len(db.user_top_frames(1)) == 2
        assert len(db.user_top_frames(2)) == 1
        assert db.user_top_frames(99) == []


class TestConcurrency:
    def test_parallel_appends_consistent(self, shared_factory):
        db = SignatureDatabase()
        sigs = [shared_factory.make_valid() for _ in range(40)]

        def add(batch):
            for sig in batch:
                db.append(sig, sig.to_bytes(), 1)

        threads = [
            threading.Thread(target=add, args=(sigs[i::4],)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        unique = len({s.sig_id for s in sigs})
        assert len(db) == unique
        next_index, blobs, _ = db.blobs_page(0, 100)
        assert next_index == unique == len(blobs)
