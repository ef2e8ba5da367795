"""Durability wiring: database + server write-through, replay, restarts."""

import os
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
            self, tmp_path, signatures, monkeypatch):
        store = SignatureStore(str(tmp_path), fsync="always")
        db = SignatureDatabase(store=store)
        sig = signatures[0]
        monkeypatch.setattr(os, "fsync", _failing_fsync)
        with pytest.raises(OSError):
            db.append(sig, sig.to_bytes(), 1)
        assert len(db) == 0
        assert not db.contains(sig.sig_id)
        assert store.record_count == 0  # the log rolled the record back
        monkeypatch.undo()
        assert db.append(sig, sig.to_bytes(), 1) == 0  # the disk is back
        assert store.durable_count == 1
        store.close()


def _failing_fsync(fd):
    raise OSError(28, "No space left on device")


def _add(server, via, blob, token):
    """One ADD through the direct or the forwarded entry point."""
    if via == "direct":
        return server.process_add(blob, token)
    return server.process_forwarded_add(
        blob, server.authority.decode(token).user_id)


class TestFailingDisk:
    """A real store whose fsync fails: neither entry point may ack,
    publish, keep a dedup entry, or keep the quota slot."""

    @pytest.mark.parametrize("via", ["direct", "forwarded"])
    def test_failed_fsync_is_store_error_and_leaves_no_trace(
            self, tmp_path, signatures, monkeypatch, via):
        server = CommunixServer(
            config=_config(tmp_path, max_signatures_per_user_per_day=3))
        token = server.issue_user_token()
        uid = server.authority.decode(token).user_id
        sig = signatures[3]
        monkeypatch.setattr(os, "fsync", _failing_fsync)
        outcome = _add(server, via, sig.to_bytes(), token)
        assert (outcome.accepted, outcome.verdict) == (False, "store_error")
        assert len(server.database) == 0
        assert not server.database.contains(sig.sig_id)
        assert server.quota.used_today(uid) == 0
        assert server.store.record_count == 0
        monkeypatch.undo()
        again = _add(server, via, sig.to_bytes(), token)
        assert (again.accepted, again.index) == (True, 0)
        server.close()


class TestForwardedParity:
    """``process_add`` and ``process_forwarded_add`` are one body: the
    same steps give the same verdict and index, and only the direct
    entry point moves the request counters."""

    @staticmethod
    def _steps(case, factory):
        """(user, blob) pairs; the verdict of the last one is compared."""
        first = factory.make_valid().to_bytes()
        if case == "oversized":
            return [(0, b"x" * (65 * 1024))]
        if case == "malformed":
            return [(0, b"garbage bytes")]
        if case == "quota_exceeded":
            return [(0, first), (0, factory.make_valid().to_bytes())]
        if case == "adjacent":
            a, b = factory.make_adjacent_pair()
            return [(0, a.to_bytes()), (0, b.to_bytes())]
        if case == "duplicate":
            return [(0, first), (1, first)]
        return [(0, first)]

    @pytest.mark.parametrize("case", ["oversized", "malformed",
                                      "quota_exceeded", "adjacent",
                                      "duplicate", "ok"])
    def test_direct_and_forwarded_agree(self, case, shared_factory):
        steps = self._steps(case, shared_factory)
        results = {}
        for via in ("direct", "forwarded"):
            quota = 1 if case == "quota_exceeded" else 10
            server = CommunixServer(config=ServerConfig(
                max_signatures_per_user_per_day=quota))
            tokens = [server.issue_user_token() for _ in range(2)]
            for user, blob in steps:
                outcome = _add(server, via, blob, tokens[user])
            results[via] = (outcome.verdict, outcome.index)
            stats = server.stats
            moved = stats.adds_accepted + sum(stats.adds_rejected.values())
            assert moved == (len(steps) if via == "direct" else 0)
        assert results["direct"] == results["forwarded"]
        expected = {"duplicate": ("ok", 0), "ok": ("ok", 0)}.get(
            case, (case, None))
        assert results["direct"] == expected


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
