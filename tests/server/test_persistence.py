"""Durability wiring: database + server write-through, replay, restarts."""

import random

import pytest

from repro.core.signature import ORIGIN_REMOTE, DeadlockSignature
from repro.loadgen.signatures import random_signature
from repro.server.database import SignatureDatabase
from repro.server.server import CommunixServer, ServerConfig
from repro.store import SignatureStore


@pytest.fixture(scope="module")
def signatures():
    rng = random.Random(1107)
    return [random_signature(rng) for _ in range(30)]


def _config(tmp_path, **overrides):
    defaults = dict(
        data_dir=str(tmp_path / "data"),
        fsync_policy="always",
        checkpoint_every=8,
        max_signatures_per_user_per_day=10_000,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


class TestDatabaseWriteThrough:
    def test_appends_reach_the_log(self, tmp_path, signatures):
        store = SignatureStore(str(tmp_path), fsync="always")
        db = SignatureDatabase(store=store)
        for i, sig in enumerate(signatures[:5]):
            assert db.append(sig, sig.to_bytes(), 1) == i
        assert store.record_count == 5
        store.close()

    def test_duplicates_are_not_relogged(self, tmp_path, signatures):
        store = SignatureStore(str(tmp_path), fsync="never")
        db = SignatureDatabase(store=store)
        sig = signatures[0]
        assert db.append(sig, sig.to_bytes(), 1) == 0
        assert db.append(sig, sig.to_bytes(), 2) == 0  # dup: same index
        assert store.record_count == 1
        store.close()

    def test_replay_rebuilds_full_state(self, tmp_path, signatures):
        store = SignatureStore(str(tmp_path), fsync="always",
                               segment_records=4)
        db = SignatureDatabase(store=store, segment_size=4)
        for i, sig in enumerate(signatures[:10]):
            db.append(sig, sig.to_bytes(), i % 2 + 1)
        store.close()

        reopened = SignatureStore(str(tmp_path), segment_records=4)
        db2 = SignatureDatabase(store=reopened, segment_size=4)
        assert len(db2) == 10
        assert db2.replayed_count == 10
        assert db2.segment_count == db.segment_count
        # Bytes served are identical, chunk for chunk.
        assert db2.wire_from(0, 100) == db.wire_from(0, 100)
        assert db2.blobs_page(3, 4) == db.blobs_page(3, 4)
        # Dedup map and adjacency index rebuilt.
        assert db2.contains(signatures[0].sig_id)
        assert db2.user_top_frames(1) == db.user_top_frames(1)
        assert db2.user_top_frames(2) == db.user_top_frames(2)
        # New appends continue at the right index, hitting the log.
        sig = signatures[10]
        assert db2.append(sig, sig.to_bytes(), 5) == 10
        assert reopened.record_count == 11
        reopened.close()

    def test_duplicate_log_records_replay_without_index_drift(
            self, tmp_path, signatures):
        # A healthy writer never logs duplicates, but replay must keep
        # database indices == log indices even if one shows up (e.g. a
        # record re-flushed across a botched crash): both copies load and
        # the next append still lands on the right index.
        from repro.store.wal import SegmentedLog

        blob = signatures[0].to_bytes()
        log = SegmentedLog(str(tmp_path), fsync="never")
        log.append(blob, 1)
        log.append(blob, 2)  # the duplicate
        log.close()
        store = SignatureStore(str(tmp_path), fsync="never")
        db = SignatureDatabase(store=store)
        assert len(db) == 2
        assert db.replayed_count == 2
        sig = signatures[1]
        assert db.append(sig, sig.to_bytes(), 3) == 2
        assert store.record_count == 3
        store.close()

    def test_failed_store_append_leaves_memory_unchanged(
            self, tmp_path, signatures):
        class ExplodingStore:
            def append(self, *a, **k):
                raise OSError("disk full")

            def recovered_entries(self):
                return []

        db = SignatureDatabase(store=ExplodingStore())
        sig = signatures[0]
        with pytest.raises(OSError):
            db.append(sig, sig.to_bytes(), 1)
        assert len(db) == 0
        assert not db.contains(sig.sig_id)


class TestServerRestart:
    def test_acked_adds_survive_reopen(self, tmp_path, signatures):
        config = _config(tmp_path)
        server = CommunixServer(config=config)
        token = server.issue_user_token()
        acked = []
        for sig in signatures[:12]:
            outcome = server.process_add(sig.to_bytes(), token)
            assert outcome.accepted
            acked.append(outcome.index)
        server.close()

        restarted = CommunixServer(config=config)
        next_index, blobs, _ = restarted.process_get_page(0, 4096)
        assert next_index == 12
        assert blobs == [sig.to_bytes() for sig in signatures[:12]]
        restarted.close()

    def test_restart_preserves_uid_sequence_and_adjacency(
            self, tmp_path, signatures):
        config = _config(tmp_path)
        server = CommunixServer(config=config)
        token = server.issue_user_token()  # uid 1
        uid = server.authority.decode(token).user_id
        server.process_add(signatures[0].to_bytes(), token)
        server.close()

        restarted = CommunixServer(config=config)
        # The pre-crash user's uid is not re-issued to a newcomer...
        new_uid = restarted.authority.decode(
            restarted.issue_user_token()
        ).user_id
        assert new_uid > uid
        # ...and their adjacency history survived: an adjacent signature
        # from the *same* user is still rejected.
        sig = DeadlockSignature.from_bytes(signatures[0].to_bytes(),
                                           origin=ORIGIN_REMOTE)
        assert restarted.database.user_top_frames(uid) == [sig.top_frames]
        restarted.close()

    def test_restart_preserves_dedup(self, tmp_path, signatures):
        config = _config(tmp_path)
        server = CommunixServer(config=config)
        token = server.issue_user_token()
        first = server.process_add(signatures[0].to_bytes(), token)
        server.close()

        restarted = CommunixServer(config=config)
        token2 = restarted.issue_user_token()
        again = restarted.process_add(signatures[0].to_bytes(), token2)
        # Same content hash: same index, not stored twice.
        assert again.verdict in ("ok", "duplicate")
        assert len(restarted.database) == 1
        assert again.index in (first.index, None)
        restarted.close()

    def test_store_error_rejects_instead_of_acking(
            self, tmp_path, signatures):
        config = _config(tmp_path)
        server = CommunixServer(config=config)
        token = server.issue_user_token()
        server.store.close(final_checkpoint=False)  # simulate a dead disk
        outcome = server.process_add(signatures[1].to_bytes(), token)
        assert not outcome.accepted
        assert outcome.verdict == "store_error"
        assert len(server.database) == 0

    def test_store_error_refunds_the_quota_slot(self, tmp_path, signatures):
        config = _config(tmp_path, max_signatures_per_user_per_day=3)
        server = CommunixServer(config=config)
        token = server.issue_user_token()
        uid = server.authority.decode(token).user_id
        server.store.close(final_checkpoint=False)  # disk gone
        # Retrying against a dead disk must not burn the daily allowance:
        # every attempt is store_error (never quota_exceeded), and the
        # slots all come back.
        for _ in range(5):
            outcome = server.process_add(signatures[2].to_bytes(), token)
            assert outcome.verdict == "store_error"
        assert server.quota.used_today(uid) == 0

    def test_memory_only_config_has_no_store(self):
        server = CommunixServer(config=ServerConfig())
        assert server.store is None
        server.flush_store()  # no-ops, never raises
        server.close()
