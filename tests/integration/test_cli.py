"""CLI smoke tests: the server and client entry points as real processes."""

import subprocess
import sys
import time

import pytest

from repro.client.endpoints import SocketEndpoint


@pytest.fixture
def live_server_process(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--addr", "tcp://127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    # The server prints "communix-server listening on tcp://host:port ..."
    # (possibly after log lines on the merged stderr stream).
    for _ in range(20):
        line = proc.stdout.readline()
        if line.startswith("communix-server listening on"):
            break
    assert line.startswith("communix-server listening on"), line
    url = line.split("listening on", 1)[1].split()[0]
    assert url.startswith("tcp://127.0.0.1:"), line
    yield proc, url
    proc.terminate()
    proc.wait(timeout=10)


class TestServerCli:
    def test_serves_real_clients(self, live_server_process, shared_factory):
        _, url = live_server_process
        endpoint = SocketEndpoint(url)
        try:
            token = endpoint.issue_token()
            sig = shared_factory.make_valid()
            assert endpoint.add(sig.to_bytes(), token)
            next_index, blobs, more = endpoint.get_page(0, 16)
            assert next_index == 1 and len(blobs) == 1 and not more
        finally:
            endpoint.close()

    def test_client_cli_once_mode(self, live_server_process, shared_factory,
                                  tmp_path):
        _, url = live_server_process
        # Seed one signature through a direct endpoint first.
        endpoint = SocketEndpoint(url)
        try:
            endpoint.add(shared_factory.make_valid().to_bytes(),
                         endpoint.issue_token())
        finally:
            endpoint.close()

        repo_path = tmp_path / "repo.json"
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.client",
                "--server", url,
                "--repository", str(repo_path),
                "--once",
            ],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "stored 1" in completed.stdout
        assert repo_path.exists()

    def test_bad_server_argument(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.client", "--server", "nonsense",
             "--once"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert completed.returncode != 0

    def test_bare_host_port_server_argument_rejected(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.client", "--server",
             "127.0.0.1:7199", "--once"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert completed.returncode != 0
        assert "tcp://" in completed.stderr

    @pytest.mark.parametrize("flag", ["--host", "--port"])
    def test_removed_host_port_flags_exit_2(self, flag):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.server", flag, "7199"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert completed.returncode == 2
        assert "unrecognized arguments" in completed.stderr

    def test_unix_addr_server_and_client_url(self, tmp_path, shared_factory):
        """--addr unix:// end to end: server child binds a UNIX socket,
        the daemon polls it by URL, and the socket file is unlinked on
        clean shutdown."""
        import os

        sock_path = tmp_path / "cli-server.sock"
        url = f"unix://{sock_path}"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--addr", url],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            for _ in range(20):
                line = proc.stdout.readline()
                if line.startswith("communix-server listening on"):
                    break
            assert url in line, line

            endpoint = SocketEndpoint(url)
            try:
                endpoint.add(shared_factory.make_valid().to_bytes(),
                             endpoint.issue_token())
            finally:
                endpoint.close()

            completed = subprocess.run(
                [
                    sys.executable, "-m", "repro.client",
                    "--server", url,
                    "--repository", str(tmp_path / "repo.json"),
                    "--once",
                ],
                capture_output=True,
                text=True,
                timeout=30,
            )
            assert completed.returncode == 0, (
                completed.stdout + completed.stderr
            )
            assert "stored 1" in completed.stdout
        finally:
            proc.terminate()
            proc.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while os.path.exists(sock_path) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not os.path.exists(sock_path)


class TestFalsePositiveUserActions:
    def test_keep_and_discard(self, runtime, shared_factory):
        sig = shared_factory.make_valid()
        runtime.history.add(sig)
        runtime.keep_signature(sig.sig_id)  # suppresses future warnings
        assert runtime.discard_signature(sig.sig_id)
        assert len(runtime.history) == 0
        assert not runtime.discard_signature(sig.sig_id)
