"""End-to-end federation: worker processes killed -9 under a live client.

The acceptance bar for the federated tier: with ``--fsync always``, every
ADD any worker *acked* before a SIGKILL — of a replica or of the log
owner itself — is served by a paginated drain afterwards, the surviving
workers keep serving, and the coordinator owns the unix socket file's
lifecycle (left alone on a worker crash, unlinked at coordinator exit).
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time

import pytest

from repro.client.endpoints import SocketEndpoint
from repro.loadgen.signatures import random_signature_blobs

_WORKERS = re.compile(
    r"communix-federation: (\d+) workers \(log owner pid (\d+), "
    r"replicas ([^)]+)\)"
)
_LISTENING = re.compile(r"communix-server listening on (\S+)")


class _Federation:
    """A ``python -m repro.server --server-procs N`` coordinator child."""

    def __init__(self, procs: int, addr: str, data_dir: str, *extra: str):
        self.proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.server",
                "--addr", addr,
                "--server-procs", str(procs),
                "--data-dir", data_dir,
                "--quota-per-day", "100000",
                "--fsync", "always",
                *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.owner_pid: int | None = None
        self.replica_pids: list[int] = []
        self.bound_addr: str | None = None
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise AssertionError(
                    f"federation exited during startup (rc={self.proc.poll()})"
                )
            match = _WORKERS.search(line)
            if match:
                assert int(match.group(1)) == procs
                self.owner_pid = int(match.group(2))
                if match.group(3) != "none":
                    self.replica_pids = [int(pid) for pid
                                         in match.group(3).split(", ")]
            match = _LISTENING.search(line)
            if match:
                self.bound_addr = match.group(1)
                assert self.owner_pid is not None
                return
        raise AssertionError("federation did not start in time")

    def wait_for(self, needle: str, timeout: float = 20.0) -> str:
        """Read coordinator output until a line contains ``needle``."""
        deadline = time.monotonic() + timeout
        seen: list[str] = []
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.2)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            seen.append(line)
            if needle in line:
                return line
        raise AssertionError(
            f"never saw {needle!r} in coordinator output: {seen}"
        )

    def terminate(self, expect_rc: int = 0) -> str:
        self.proc.send_signal(signal.SIGTERM)
        out = self.proc.stdout.read()
        assert self.proc.wait(timeout=30) == expect_rc, out
        return out

    def cleanup(self) -> None:
        if self.proc.poll() is None:  # pragma: no cover - failed test path
            self.proc.kill()
            self.proc.wait(timeout=10)


@pytest.fixture
def paths(tmp_path):
    return str(tmp_path / "data"), str(tmp_path / "server.sock")


def _drain(endpoint: SocketEndpoint, page_size: int = 5) -> list[bytes]:
    blobs: list[bytes] = []
    cursor, more = 0, True
    while more:
        cursor, page, more = endpoint.get_page(cursor, page_size)
        blobs.extend(page)
        assert len(page) <= page_size
    return blobs


def _kill9(pid: int) -> None:
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


class TestKillReplica:
    def test_survivors_serve_and_no_acked_add_is_lost(self, paths):
        data_dir, sock = paths
        fed = _Federation(2, f"unix://{sock}", data_dir,
                          "--checkpoint-every", "6")
        acked: list[bytes] = []
        try:
            endpoint = SocketEndpoint(f"unix://{sock}")
            try:
                token = endpoint.issue_token()
                for blob in random_signature_blobs(8, seed=77):
                    assert endpoint.add(blob, token)
                    acked.append(blob)
            finally:
                endpoint.close()

            _kill9(fed.replica_pids[0])
            line = fed.wait_for("exited unexpectedly")
            assert "replica" in line
            # The crash is detected, the tier keeps serving: a fresh
            # connection lands on a survivor and both ADD and GET work.
            assert os.path.exists(sock)  # socket file is coordinator-owned
            endpoint = SocketEndpoint(f"unix://{sock}")
            try:
                token = endpoint.issue_token()
                for blob in random_signature_blobs(4, seed=78):
                    assert endpoint.add(blob, token)
                    acked.append(blob)
                assert _drain(endpoint) == acked
            finally:
                endpoint.close()
            tail = fed.terminate(expect_rc=1)  # a worker did crash
            assert "12 durable" in tail
        finally:
            fed.cleanup()
        # Graceful coordinator exit unlinks the socket file it bound.
        assert not os.path.exists(sock)

        # Restart as a plain single-process server: every acked ADD is
        # there, in order — same bytes a client would have drained.
        restart = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.server",
             "--addr", f"unix://{sock}", "--data-dir", data_dir,
             "--quota-per-day", "100000", "--fsync", "always"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            while True:
                line = restart.stdout.readline()
                assert line, "restarted server died"
                if "listening on" in line:
                    break
            endpoint = SocketEndpoint(f"unix://{sock}")
            try:
                assert _drain(endpoint) == acked
            finally:
                endpoint.close()
        finally:
            restart.kill()
            restart.wait(timeout=10)


class TestKillLogOwner:
    def test_replicas_serve_reads_and_fail_writes_closed(self, paths):
        data_dir, sock = paths
        fed = _Federation(2, f"unix://{sock}", data_dir)
        acked: list[bytes] = []
        try:
            endpoint = SocketEndpoint(f"unix://{sock}")
            try:
                token = endpoint.issue_token()
                for blob in random_signature_blobs(6, seed=81):
                    assert endpoint.add(blob, token)
                    acked.append(blob)
            finally:
                endpoint.close()

            _kill9(fed.owner_pid)
            line = fed.wait_for("exited unexpectedly")
            assert "log owner" in line
            # The surviving replica serves reads from its replicated
            # copy: a consistent *prefix* of the acked history (its
            # apply-stream froze wherever it was when the owner died —
            # the full history is the restart's job below).  ADDs must
            # fail *closed*: without the log owner nothing can be made
            # durable, so nothing may be acked.
            endpoint = SocketEndpoint(f"unix://{sock}")
            try:
                drained = _drain(endpoint)
            finally:
                endpoint.close()
            # No freshness bound: on a loaded box the apply-stream may
            # trail by a few records at the instant of the kill.  What is
            # guaranteed is consistency (a prefix, never reordered or
            # invented data) — and full durability, which the restart
            # below proves for every acked ADD.
            assert drained == acked[:len(drained)]
            endpoint = SocketEndpoint(f"unix://{sock}")
            try:
                assert not endpoint.add(
                    random_signature_blobs(1, seed=82)[0], token
                )
            finally:
                endpoint.close()
            fed.terminate(expect_rc=1)
        finally:
            fed.cleanup()

        # Every acked ADD survived the owner's SIGKILL: restart over the
        # same data dir and drain.
        restart = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.server",
             "--addr", f"unix://{sock}", "--data-dir", data_dir,
             "--quota-per-day", "100000", "--fsync", "always"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            while True:
                line = restart.stdout.readline()
                assert line, "restarted server died"
                if "listening on" in line:
                    break
            endpoint = SocketEndpoint(f"unix://{sock}")
            try:
                assert _drain(endpoint) == acked
            finally:
                endpoint.close()
        finally:
            restart.kill()
            restart.wait(timeout=10)


class TestTcpReusePort:
    def test_two_workers_share_a_tcp_port(self, tmp_path):
        data_dir = str(tmp_path / "data")
        fed = _Federation(2, "tcp://127.0.0.1:0", data_dir)
        try:
            url = fed.bound_addr
            assert url.startswith("tcp://")
            assert not url.endswith(":0")  # port 0 was resolved
            blobs = random_signature_blobs(5, seed=91)
            endpoint = SocketEndpoint(url)
            try:
                token = endpoint.issue_token()
                for blob in blobs:
                    assert endpoint.add(blob, token)
                # This connection may sit on a replica whose apply-stream
                # trails the acked history by a beat; a drain is always a
                # consistent prefix and converges on the full history.
                deadline = time.monotonic() + 10.0
                drained = _drain(endpoint)
                while drained != blobs and time.monotonic() < deadline:
                    time.sleep(0.05)
                    drained = _drain(endpoint)
                assert drained == blobs
            finally:
                endpoint.close()
            tail = fed.terminate()
            assert "served 5 adds" in tail
        finally:
            fed.cleanup()
