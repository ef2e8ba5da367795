"""Failure injection: corrupt state, dead peers, hostile inputs.

A production deployment survives partial failures; these tests pin the
documented behaviour for each failure mode.
"""

import os
import random

import pytest

import repro.sim.workloads as workloads_mod
import repro.store.wal as wal_module
from repro.client.client import CommunixClient
from repro.client.endpoints import InProcessEndpoint, SocketEndpoint
from repro.core.history import DeadlockHistory
from repro.core.node import CommunixNode
from repro.core.pyapp import PythonAppAdapter
from repro.core.repository import LocalRepository
from repro.crypto.userid import UserIdAuthority
from repro.server.server import CommunixServer
from repro.sim.workloads import TwoLockProgram
from repro.store.records import HEADER_BYTES, record_size
from repro.util.clock import ManualClock
from repro.util.errors import HistoryError


class TestCorruptPersistence:
    def test_corrupt_history_fails_loud(self, tmp_path):
        path = tmp_path / "history.json"
        path.write_text("}{ definitely not json")
        with pytest.raises(HistoryError):
            DeadlockHistory(path=path)

    def test_truncated_history_fails_loud(self, tmp_path, shared_factory):
        path = tmp_path / "history.json"
        history = DeadlockHistory(path=path)
        history.add(shared_factory.make_valid().with_origin("local"))
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        with pytest.raises(HistoryError):
            DeadlockHistory(path=path)


@pytest.fixture
def sigs(shared_factory):
    return [shared_factory.make_valid() for _ in range(8)]


class ListServer:
    """A server database as a list of blobs, paged like the real one."""

    def __init__(self, signatures):
        self.blobs = [s.to_bytes() for s in signatures]

    def get_page(self, start, count):
        page = self.blobs[start:start + count]
        return start + len(page), page, start + len(page) < len(self.blobs)


def poll(repo, server):
    return CommunixClient(server, repo, page_size=2).poll_once()


def ids(repo):
    return [repo.signature_at(i).sig_id for i in range(len(repo))]


class TestRepositoryCrashAndDamage:
    @pytest.mark.parametrize("damage, survivors, pending",
                             [("torn", 7, [1, 5]), ("crc", 3, [1])],
                             ids=["torn", "crc"])
    def test_damage_rewinds_and_next_poll_restores(self, tmp_path, sigs,
                                                   damage, survivors, pending):
        """A torn last record or a CRC-damaged middle one: the server index
        rewinds to the damaged record, cursors and pending clamp, and the
        next poll fetches exactly what was lost, in server order."""
        path = tmp_path / "repo"
        server = ListServer(sigs)
        repo = LocalRepository(path=path)
        poll(repo, server)
        repo.advance_cursor("appX", 8)
        repo.set_pending_nesting("appX", [1, 5, 7])
        repo.close()
        at = sum(map(record_size, server.blobs[:survivors])) + HEADER_BYTES
        with open(path / "segment-00000000.cxlog", "r+b") as fh:
            if damage == "torn":
                fh.truncate(at + 3)
            else:
                fh.seek(at + 20)
                fh.write(b"\0")  # inside the blob's JSON text: never a NUL

        reopened = LocalRepository(path=path)
        assert (len(reopened), reopened.server_index) == (survivors, survivors)
        assert reopened.get_cursor("appX") == survivors
        assert reopened.pending_nesting("appX") == pending
        report = poll(reopened, server)
        assert (report.requested_from, report.stored) == (survivors,
                                                         8 - survivors)
        assert ids(reopened) == [s.sig_id for s in sigs]

    def test_crash_between_log_commit_and_sidecar(self, tmp_path, sigs,
                                                  monkeypatch):
        """Page 2 reaches the log but not the sidecar: the reopen resumes
        after the log's last record, re-fetching at most that page's tail
        (here a duplicate), which dedup absorbs."""
        path = tmp_path / "repo"
        server = ListServer([*sigs[:3], sigs[0], *sigs[3:6]])
        repo = LocalRepository(path=path)
        real_fsync, calls = os.fsync, []

        def crashing_fsync(fd):
            calls.append(fd)
            if len(calls) == 5:  # page 1: log, sidecar, dir; page 2: log, *
                raise OSError("simulated crash")
            real_fsync(fd)

        monkeypatch.setattr(wal_module.os, "fsync", crashing_fsync)
        with pytest.raises(OSError, match="simulated crash"):
            poll(repo, server)
        monkeypatch.undo()

        reopened = LocalRepository(path=path)
        assert (len(reopened), reopened.server_index) == (3, 3)
        report = poll(reopened, server)
        assert (report.requested_from, report.received,
                report.stored) == (3, 4, 3)
        assert ids(reopened) == [s.sig_id for s in sigs[:6]]


class TestDeadServer:
    def test_plugin_survives_dead_server(self):
        """A node whose server is unreachable keeps full local immunity."""
        endpoint = SocketEndpoint("tcp://127.0.0.1:1")  # connection refused
        node = CommunixNode("lonely", None, DeadTokenEndpoint(endpoint))
        node.attach_app(
            PythonAppAdapter("app", [workloads_mod], runtime=node.runtime)
        )
        node.start()
        try:
            program = TwoLockProgram(node.runtime, "dead")
            first = program.run_once(collide=True)
            assert first.deadlocked
            assert len(node.history) == 1  # local immunity intact
            node.plugin.flush(timeout=2.0)
            assert node.plugin.failed_uploads  # upload failed, retained
            second = program.run_once(collide=True)
            assert not second.deadlocked  # avoidance unaffected
            report = node.sync_now()
            assert report.failed
        finally:
            node.close()


class DeadTokenEndpoint:
    """Wraps a dead TCP endpoint but lets token issue succeed so the node
    can be constructed (its server died after registration)."""

    def __init__(self, inner):
        self._inner = inner

    def issue_token(self):
        return "feed" * 24

    def add(self, blob, token):
        return self._inner.add(blob, token)

    def get_page(self, from_index, max_count):
        return self._inner.get_page(from_index, max_count)


class TestHostileServer:
    def test_client_survives_garbage_blobs(self, manual_clock, shared_factory):
        class GarbageServer:
            def get_page(self, from_index, max_count):
                good = shared_factory.make_valid().to_bytes()
                return 3, [b"\x00\x01garbage", b"{}", good], False

        repo = LocalRepository()
        client = CommunixClient(endpoint=GarbageServer(), repository=repo,
                                clock=manual_clock)
        report = client.poll_once()
        assert report.malformed == 2
        assert report.stored == 1
        assert len(repo) == 1

    def test_server_index_not_poisoned_backwards(self, manual_clock, shared_factory):
        class RewindingServer:
            def __init__(self):
                self.calls = 0

            def get_page(self, from_index, max_count):
                self.calls += 1
                if self.calls == 1:
                    return 5, [shared_factory.make_valid().to_bytes()], False
                return 1, [], False  # malicious rewind

        repo = LocalRepository()
        client = CommunixClient(endpoint=RewindingServer(), repository=repo,
                                clock=manual_clock)
        client.poll_once()
        assert repo.server_index == 5
        client.poll_once()
        assert repo.server_index == 5  # monotone


class TestHostileClients:
    def test_server_survives_malformed_floods(self, manual_clock):
        server = CommunixServer(
            authority=UserIdAuthority(rng=random.Random(8)), clock=manual_clock
        )
        token = server.issue_user_token()
        for payload in (b"", b"\x00" * 10, b"[1,2,3]", b'{"version":1}'):
            outcome = server.process_add(payload, token)
            assert not outcome.accepted
        assert len(server.database) == 0
        # The server is still fully functional afterwards.
        assert server.process_get_page(0, 10) == (0, [], False)


class TestNodeRestart:
    def test_state_survives_restart(self, tmp_path, shared_factory):
        """History, repository, and cursors persist across node restarts."""
        server = CommunixServer(
            authority=UserIdAuthority(rng=random.Random(12)),
            clock=ManualClock(start=1_000_000.0),
        )
        token = server.issue_user_token()
        sig = shared_factory.make_valid()
        server.process_add(sig.to_bytes(), token)

        endpoint = InProcessEndpoint(server)
        data_dir = tmp_path / "node"

        node = CommunixNode("restarting", None, endpoint, data_dir=data_dir)
        node.attach_app(
            PythonAppAdapter("app", [workloads_mod], runtime=node.runtime)
        )
        node.start()
        node.sync_now()
        assert len(node.repository) == 1
        node.close()

        reborn = CommunixNode("restarting", None, endpoint, data_dir=data_dir)
        reborn.attach_app(
            PythonAppAdapter("app", [workloads_mod], runtime=reborn.runtime)
        )
        reborn.start()
        try:
            assert len(reborn.repository) == 1
            report = reborn.sync_now()
            assert report.received == 0  # incremental: nothing new
        finally:
            reborn.close()
