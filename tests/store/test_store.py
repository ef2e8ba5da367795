"""SignatureStore: metadata recovery, checkpoints, and tail-only replay."""

import json
import random

import pytest

import repro.store.store as store_module
from repro.loadgen.signatures import random_signature
from repro.store import SignatureStore, StoreError, load_manifest
from repro.store.checkpoint import manifest_path


@pytest.fixture(scope="module")
def signatures():
    rng = random.Random(20110627)
    return [random_signature(rng) for _ in range(40)]


def _append(store, sig, uid):
    return store.append(sig.to_bytes(), sig.sig_id, uid, sig.top_frames)


def _populate(path, signatures, *, uid_of=lambda i: i % 3 + 1, **kwargs):
    store = SignatureStore(str(path), **kwargs)
    for i, sig in enumerate(signatures):
        assert _append(store, sig, uid_of(i)) == i
    return store


class TestAppendRecover:
    def test_metadata_survives_reopen(self, tmp_path, signatures):
        _populate(tmp_path, signatures[:10], fsync="always",
                  segment_records=4).close(final_checkpoint=False)
        store = SignatureStore(str(tmp_path), segment_records=4)
        entries = store.recovered_entries()
        assert [e.index for e in entries] == list(range(10))
        for i, entry in enumerate(entries):
            assert entry.blob == signatures[i].to_bytes()
            assert entry.sig_id == signatures[i].sig_id
            assert entry.top_frames == signatures[i].top_frames
            assert entry.sender_uid == i % 3 + 1
        assert store.next_uid == 4  # max uid seen + 1
        store.close()

    def test_recovered_entries_consumed_once(self, tmp_path, signatures):
        _populate(tmp_path, signatures[:3], fsync="never").close()
        store = SignatureStore(str(tmp_path))
        assert len(store.recovered_entries()) == 3
        assert store.recovered_entries() == []
        store.close()

    def test_append_to_closed_store_fails(self, tmp_path, signatures):
        store = SignatureStore(str(tmp_path), fsync="never")
        store.close()
        with pytest.raises(ValueError):
            _append(store, signatures[0], 1)


class TestCheckpoint:
    def test_manifest_contents(self, tmp_path, signatures):
        store = _populate(tmp_path, signatures[:6], fsync="always",
                          segment_records=4, checkpoint_every=0)
        store.checkpoint()
        manifest = load_manifest(str(tmp_path))
        assert manifest.record_count == 6
        assert manifest.segment_records == 4
        assert manifest.segments == ["segment-00000000.cxlog",
                                     "segment-00000001.cxlog"]
        assert manifest.sig_ids == [s.sig_id for s in signatures[:6]]
        assert manifest.top_frames == [s.top_frames for s in signatures[:6]]
        # No per-user index: every log record carries its uid.
        with open(manifest_path(str(tmp_path))) as fh:
            assert "users" not in json.load(fh)
        assert manifest.next_uid == 4
        store.close()

    def test_auto_checkpoint_cadence(self, tmp_path, signatures):
        store = _populate(tmp_path, signatures[:11], fsync="never",
                          checkpoint_every=4)
        assert store.checkpoint_count == 8  # fired at 4 and 8, not yet 12
        store.close(final_checkpoint=False)

    def test_close_writes_final_checkpoint(self, tmp_path, signatures):
        store = _populate(tmp_path, signatures[:5], fsync="never")
        store.close()
        assert load_manifest(str(tmp_path)).record_count == 5

    def test_failed_final_checkpoint_still_seals_the_log(
            self, tmp_path, signatures, monkeypatch):
        store = _populate(tmp_path, signatures[:3], fsync="never")

        def exploding(*a, **k):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store_module, "write_manifest", exploding)
        with pytest.raises(OSError):
            store.close()
        # The log was sealed anyway: no leaked handle, store is closed,
        # and the records (flushed by the log close) survive reopen.
        assert store.closed
        monkeypatch.undo()
        reopened = SignatureStore(str(tmp_path))
        assert len(reopened.recovered_entries()) == 3
        reopened.close()

    def test_note_next_uid_persists(self, tmp_path, signatures):
        store = _populate(tmp_path, signatures[:2], fsync="never")
        store.note_next_uid(77)
        store.close()
        reopened = SignatureStore(str(tmp_path))
        assert reopened.next_uid == 77
        reopened.close()


class TestTailOnlyReplay:
    def test_checkpointed_restart_parses_only_the_tail(
            self, tmp_path, signatures, monkeypatch):
        store = _populate(tmp_path, signatures[:12], fsync="always",
                          segment_records=4, checkpoint_every=0)
        store.checkpoint()  # manifest at 12
        for i, sig in enumerate(signatures[12:17]):
            _append(store, sig, 9)
        store.close(final_checkpoint=False)  # 5 tail records past manifest

        parses = []
        real = store_module.DeadlockSignature.from_bytes

        def counting(data, origin):
            parses.append(data)
            return real(data, origin)

        monkeypatch.setattr(store_module.DeadlockSignature, "from_bytes",
                            staticmethod(counting))
        reopened = SignatureStore(str(tmp_path), segment_records=4)
        entries = reopened.recovered_entries()
        assert len(entries) == 17
        assert reopened.replayed_past_checkpoint == 5
        # Only the 5 un-checkpointed records were deserialized; the prefix
        # came straight from the manifest metadata.
        assert len(parses) == 5
        # ... and the prefix metadata still matches the real signatures.
        assert entries[3].sig_id == signatures[3].sig_id
        assert entries[3].top_frames == signatures[3].top_frames
        reopened.close()

    def test_stale_manifest_falls_back_to_full_replay(
            self, tmp_path, signatures):
        store = _populate(tmp_path, signatures[:4], fsync="always",
                          segment_records=2)
        store.close()  # manifest at 4
        # Simulate losing log segments the checkpoint vouches for.
        manifest = json.loads(open(manifest_path(str(tmp_path))).read())
        manifest["record_count"] = 99
        manifest["entries"] += manifest["entries"] * 50
        manifest["entries"] = manifest["entries"][:99]
        with open(manifest_path(str(tmp_path)), "w") as fh:
            fh.write(json.dumps(manifest))
        reopened = SignatureStore(str(tmp_path), segment_records=2)
        entries = reopened.recovered_entries()
        assert [e.sig_id for e in entries] == [s.sig_id
                                               for s in signatures[:4]]
        reopened.close()
        # The healing close rewrote an honest manifest.
        assert load_manifest(str(tmp_path)).record_count == 4

    def test_reopen_adopts_the_dirs_segmentation(self, tmp_path, signatures):
        _populate(tmp_path, signatures[:10], fsync="never",
                  segment_records=4).close()
        # Misconfigured reopen: the manifest knows the dir's stripe size
        # and wins over the configured value.
        reopened = SignatureStore(str(tmp_path), segment_records=2)
        entries = reopened.recovered_entries()
        assert [e.sig_id for e in entries] == [s.sig_id
                                               for s in signatures[:10]]
        sig = signatures[10]
        assert _append(reopened, sig, 1) == 10
        reopened.close()
        assert load_manifest(str(tmp_path)).segment_records == 4

    def test_manifestless_segmentation_mismatch_refuses(
            self, tmp_path, signatures):
        import os

        store = _populate(tmp_path, signatures[:8], fsync="never",
                          segment_records=4)
        store.close()
        os.remove(manifest_path(str(tmp_path)))  # nothing records the size
        with pytest.raises(StoreError):
            SignatureStore(str(tmp_path), segment_records=2)
        # The refusal changed nothing: the right configuration still opens.
        good = SignatureStore(str(tmp_path), segment_records=4)
        assert len(good.recovered_entries()) == 8
        good.close()

    def test_checkpointed_reopen_restores_user_index_from_the_log(
            self, tmp_path, signatures):
        store = _populate(tmp_path, signatures[:6], fsync="never",
                          segment_records=4)
        store.close()  # manifest covers all 6
        reopened = SignatureStore(str(tmp_path), segment_records=4)
        assert reopened.replayed_past_checkpoint == 0
        # The checkpointed prefix was not parsed, yet every record's
        # sender is back: the uid rides in the log record itself.
        entries = reopened.recovered_entries()
        assert [e.sender_uid for e in entries] == [1, 2, 3, 1, 2, 3]
        reopened.close()

    def test_corrupt_manifest_is_ignored(self, tmp_path, signatures):
        store = _populate(tmp_path, signatures[:3], fsync="never")
        store.close()
        with open(manifest_path(str(tmp_path)), "w") as fh:
            fh.write("{this is not json")
        reopened = SignatureStore(str(tmp_path))
        assert len(reopened.recovered_entries()) == 3
        assert reopened.replayed_past_checkpoint == 3
        reopened.close()
