"""The store's metadata-provider hook: one copy of per-record metadata.

A :class:`SignatureDatabase` writing through a :class:`SignatureStore`
already holds every record's ``(sig_id, top_frames, sender_uid)``; once it
attaches itself as the store's metadata provider, the store drops its own
mirror lists and pulls checkpoint metadata from the database instead.
These tests pin the attach contract and that checkpoints built through
the provider are byte-for-byte what the mirrored path produced.
"""

import random

import pytest

from repro.loadgen.signatures import random_signature
from repro.server.database import SignatureDatabase
from repro.core.signature import DeadlockSignature
from repro.store import SignatureStore, StoreError, load_manifest


def _db_with_store(path, **store_kwargs) -> SignatureDatabase:
    store = SignatureStore(str(path), **store_kwargs)
    return SignatureDatabase(store=store)


def _add(database, sig, uid) -> int:
    return database.append(sig, sig.to_bytes(), uid)


@pytest.fixture(scope="module")
def signatures():
    rng = random.Random(20110808)
    return [random_signature(rng) for _ in range(12)]


class TestAttach:
    def test_database_attaches_itself_on_construction(self, tmp_path,
                                                      signatures):
        database = _db_with_store(tmp_path, fsync="never")
        store = database.store
        # The mirrors are gone: metadata now has exactly one owner.
        assert store._provider is database
        assert store._sig_ids is None
        assert store._top_frames is None
        assert store._uids is None
        for i, sig in enumerate(signatures[:4]):
            assert _add(database, sig, i + 1) == i
        store.close()

    def test_attach_rejects_out_of_lockstep_provider(self, tmp_path,
                                                     signatures):
        database = _db_with_store(tmp_path, fsync="never")
        _add(database, signatures[0], 1)
        database.store.close(final_checkpoint=False)
        # Reopen the store (1 logged record) but offer an empty database.
        store = SignatureStore(str(tmp_path), fsync="never")
        with pytest.raises(StoreError, match="lockstep"):
            store.set_metadata_provider(SignatureDatabase())
        store.close(final_checkpoint=False)

    def test_reattach_after_restart_via_replay(self, tmp_path, signatures):
        database = _db_with_store(tmp_path, fsync="never")
        for i, sig in enumerate(signatures[:5]):
            _add(database, sig, i % 2 + 1)
        database.store.close()
        # Restart: the database replays the store, ends in lockstep, and
        # re-attaches; the store never rebuilds its mirrors.
        reopened = _db_with_store(tmp_path, fsync="never")
        assert len(reopened) == 5
        assert reopened.store._provider is reopened
        assert reopened.store._sig_ids is None
        reopened.store.close()


class TestCheckpointThroughProvider:
    def test_manifest_matches_database_metadata(self, tmp_path, signatures):
        database = _db_with_store(tmp_path, fsync="never")
        for i, sig in enumerate(signatures):
            _add(database, sig, i % 3 + 1)
        manifest = database.store.checkpoint(full=True)
        assert manifest.record_count == len(signatures)
        assert manifest.sig_ids == [s.sig_id for s in signatures]
        assert manifest.top_frames == [tuple(sorted(s.top_frames))
                                       for s in signatures]
        database.store.close(final_checkpoint=False)
        # A cold store (mirror path: no provider until a database replays
        # it) composes the same view from the manifest.
        assert load_manifest(str(tmp_path)).record_count == len(signatures)
        cold = SignatureStore(str(tmp_path), fsync="never")
        assert cold.checkpoint_count == len(signatures)
        entries = cold.recovered_entries()
        assert [e.sig_id for e in entries] == [s.sig_id for s in signatures]
        assert [e.sender_uid for e in entries] == [i % 3 + 1
                                                  for i in range(12)]
        cold.close(final_checkpoint=False)

    def test_delta_checkpoints_slice_the_provider(self, tmp_path, signatures):
        database = _db_with_store(tmp_path, fsync="never",
                                  checkpoint_every=4)
        for i, sig in enumerate(signatures):
            _add(database, sig, i % 3 + 1)
        # The database drives the cadence (store.maybe_checkpoint after
        # each published entry), so checkpoints cover the full count:
        # full manifest at 4, deltas at 8 and 12 — through the provider's
        # checkpoint_metadata slices.
        assert database.store.checkpoint_count == 12
        database.store.close(final_checkpoint=False)
        reopened = _db_with_store(tmp_path, checkpoint_every=4)
        assert len(reopened) == 12
        assert reopened.store.checkpoint_count == 12
        assert reopened.store.replayed_past_checkpoint == 0
        for i, sig in enumerate(signatures):
            assert reopened.entry(i).sig_id == sig.sig_id
        reopened.store.close(final_checkpoint=False)

    def test_checkpoint_metadata_slices(self, tmp_path, signatures):
        database = _db_with_store(tmp_path, fsync="never")
        for i, sig in enumerate(signatures[:6]):
            _add(database, sig, i + 1)
        sig_ids, frames = database.checkpoint_metadata(2, 5)
        assert sig_ids == [s.sig_id for s in signatures[2:5]]
        assert frames == [tuple(sorted(s.top_frames))
                          for s in signatures[2:5]]
        database.store.close(final_checkpoint=False)

    def test_duplicate_append_keeps_lockstep(self, tmp_path, signatures):
        # A duplicate ADD is deduped by the database *before* the store
        # append, so provider length and log length stay equal and the
        # next checkpoint is consistent.
        database = _db_with_store(tmp_path, fsync="never")
        sig = signatures[0]
        assert _add(database, sig, 1) == 0
        reparsed = DeadlockSignature.from_bytes(sig.to_bytes())
        assert _add(database, reparsed, 2) == 0  # deduped, not re-logged
        assert len(database) == database.store.record_count == 1
        assert database.store.checkpoint(full=True).record_count == 1
        database.store.close(final_checkpoint=False)
