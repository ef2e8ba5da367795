"""End-to-end durability: a real server process, killed -9, restarted.

The acceptance bar for the store subsystem: with ``--fsync always``, every
ADD the server *acked* before a SIGKILL is served by a paginated GET drain
after restart — same bytes, same order, same indices — and a checkpointed
restart replays only the records past the manifest.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.client.endpoints import SocketEndpoint
from repro.loadgen.signatures import random_signature_blobs
from repro.store import load_manifest

_RESTORED = re.compile(
    r"restored (\d+) signatures .* \((\d+) replayed past the checkpoint"
)


class _ServerProcess:
    """A ``python -m repro.server`` child with parsed startup lines."""

    def __init__(self, data_dir: str, sock_path: str, *extra: str):
        self.proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.server",
                "--addr", f"unix://{sock_path}",
                "--data-dir", data_dir,
                "--quota-per-day", "100000",
                *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.restored: tuple[int, int] | None = None
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise AssertionError(
                    f"server exited during startup (rc={self.proc.poll()})"
                )
            match = _RESTORED.search(line)
            if match:
                self.restored = (int(match.group(1)), int(match.group(2)))
            if "listening on" in line:
                return
        raise AssertionError("server did not start in time")

    def kill9(self) -> None:
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=10)

    def terminate(self) -> str:
        """SIGTERM (graceful drain) and return the remaining stdout."""
        self.proc.send_signal(signal.SIGTERM)
        out = self.proc.stdout.read()
        assert self.proc.wait(timeout=15) == 0
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


class TestKillNineDurability:
    def test_acked_adds_survive_sigkill(self, paths):
        data_dir, sock = paths
        blobs = random_signature_blobs(17, seed=99)
        server = _ServerProcess(data_dir, sock,
                                "--fsync", "always",
                                "--checkpoint-every", "6")
        acked = []
        try:
            endpoint = SocketEndpoint(f"unix://{sock}")
            try:
                token = endpoint.issue_token()
                for blob in blobs:
                    assert endpoint.add(blob, token)  # acked == durable
                    acked.append(blob)
            finally:
                endpoint.close()
            server.kill9()  # no drain, no seal, no final checkpoint
        finally:
            server.cleanup()
        assert os.path.exists(sock)  # SIGKILL leaves the socket file behind

        restarted = _ServerProcess(data_dir, sock, "--fsync", "always",
                                   "--checkpoint-every", "6")
        try:
            # Startup replayed every acked record; auto-checkpoints fired
            # at 6 and 12, so only 17 - 12 = 5 records needed validation.
            assert restarted.restored == (17, 5)
            endpoint = SocketEndpoint(f"unix://{sock}")
            try:
                assert _drain(endpoint) == acked
                # The database keeps accepting where it left off.
                extra = random_signature_blobs(1, seed=7)[0]
                assert endpoint.add(extra, endpoint.issue_token())
                next_index, page, _ = endpoint.get_page(17, 5)
                assert next_index == 18 and page == [extra]
            finally:
                endpoint.close()
        finally:
            restarted.cleanup()

    def test_sigterm_drains_seals_and_unlinks(self, paths):
        data_dir, sock = paths
        blobs = random_signature_blobs(5, seed=3)
        # ``never`` acks before any fsync: only the drain, the final
        # checkpoint and the close can make these records durable.
        server = _ServerProcess(data_dir, sock, "--fsync", "never")
        try:
            endpoint = SocketEndpoint(f"unix://{sock}")
            try:
                token = endpoint.issue_token()
                for blob in blobs:
                    assert endpoint.add(blob, token)
            finally:
                endpoint.close()
            tail = server.terminate()
        finally:
            server.cleanup()
        # Graceful drain: stats printed, store sealed with a final
        # checkpoint, UNIX socket unlinked — no mid-write death.
        assert "5 durable, checkpointed at 5" in tail
        assert not os.path.exists(sock)
        manifest = load_manifest(data_dir)
        assert manifest.record_count == 5

        restarted = _ServerProcess(data_dir, sock, "--fsync", "always")
        try:
            # Everything is inside the checkpoint: zero records replayed
            # past the manifest.
            assert restarted.restored == (5, 0)
            endpoint = SocketEndpoint(f"unix://{sock}")
            try:
                assert _drain(endpoint) == blobs
            finally:
                endpoint.close()
        finally:
            restarted.cleanup()
