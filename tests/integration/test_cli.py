"""CLI smoke tests: the server and client entry points as real processes."""

import signal
import subprocess
import sys
import time

import pytest

from repro.client.endpoints import SocketEndpoint
from repro.server.__main__ import build_parser, config_from_args
from repro.server.server import ServerConfig


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

        repo_path = tmp_path / "repo"
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

    @pytest.mark.parametrize("argv", [
        ["--server-procs", "2"],
        ["--guard"],
        ["--federation-worker", "0"],
    ], ids=["server-procs", "guard", "federation-worker"])
    def test_removed_federation_and_guard_flags_exit_2(self, argv):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.server", *argv],
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
                    "--repository", str(tmp_path / "repo"),
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

    def test_removed_interval_fsync_policy_exits_2(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.server", "--fsync", "interval:50"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert completed.returncode == 2
        assert "invalid choice: 'interval:50'" in completed.stderr


def _sigterm_at_readiness(*argv: str) -> tuple[int, str]:
    """Start ``python -m repro.server``, SIGTERM it the moment the
    readiness line is read, and return its exit code and the rest of its
    output."""
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.server", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        while True:
            line = proc.stdout.readline()
            assert line, f"server exited before readiness (rc={proc.wait()})"
            if line.startswith("communix-server listening on"):
                break
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:  # pragma: no cover - failed test path
            proc.kill()
            proc.wait(timeout=10)
    return proc.returncode, out


class TestSignalAtReadiness:
    """The SIGTERM/SIGINT handlers are installed before the readiness
    line is printed, so a signal sent the instant it appears drains."""

    def test_single_process_drains(self, tmp_path):
        for run in range(5):
            rc, out = _sigterm_at_readiness(
                "--addr", "tcp://127.0.0.1:0",
                "--data-dir", str(tmp_path / f"data-{run}"))
            assert rc == 0, out
            assert ("served 0 adds, 0 gets; database holds 0 signatures "
                    "(0 durable, checkpointed at 0)") in out


class TestConfigFromArgs:
    def test_argv_maps_to_server_config(self, tmp_path):
        args = build_parser().parse_args([
            "--quota-per-day", "7", "--no-adjacency-check",
            "--data-dir", str(tmp_path), "--fsync", "never",
            "--checkpoint-every", "9", "--crypto-backend", "pure",
            "--token-cache-size", "5", "--no-metrics",
            "--slow-request-ms", "3.5", "--trace-buffer", "4",
        ])
        assert config_from_args(args) == ServerConfig(
            max_signatures_per_user_per_day=7,
            adjacency_check=False,
            data_dir=str(tmp_path),
            fsync_policy="never",
            checkpoint_every=9,
            crypto_backend="pure",
            token_cache_size=5,
            metrics_enabled=False,
            slow_request_ms=3.5,
            trace_buffer_size=4,
        )

    def test_shipped_defaults_are_the_config_defaults(self):
        assert config_from_args(build_parser().parse_args([])) == (
            ServerConfig())


class TestFalsePositiveUserActions:
    def test_keep_and_discard(self, runtime, shared_factory):
        sig = shared_factory.make_valid()
        runtime.history.add(sig)
        runtime.keep_signature(sig.sig_id)  # suppresses future warnings
        assert runtime.discard_signature(sig.sig_id)
        assert len(runtime.history) == 0
        assert not runtime.discard_signature(sig.sig_id)
