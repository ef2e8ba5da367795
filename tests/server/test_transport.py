"""Transport integration tests (server + SocketEndpoint, TCP and UNIX)."""

import os
import random
import socket
import threading
import time

import pytest

from repro.client.endpoints import SocketEndpoint
from repro.core.signature import DeadlockSignature
from repro.crypto.userid import UserIdAuthority
from repro.net import dial, parse_endpoint, unix_endpoint
from repro.server.server import CommunixServer
from repro.server.transport import ServerTransport
from repro.util.clock import ManualClock
from repro.util.errors import ProtocolError


@pytest.fixture
def live_server():
    server = CommunixServer(
        authority=UserIdAuthority(rng=random.Random(2)),
        clock=ManualClock(start=1_000_000.0),
    )
    transport = ServerTransport(server)
    transport.start()
    url = transport.bound_endpoints[0].url()
    yield server, url
    transport.stop()


class TestEndToEnd:
    def test_issue_add_get_cycle(self, live_server, shared_factory):
        server, url = live_server
        endpoint = SocketEndpoint(url)
        try:
            token = endpoint.issue_token()
            sig = shared_factory.make_valid()
            assert endpoint.add(sig.to_bytes(), token)
            next_index, blobs, _ = endpoint.get_page(0, 4096)
            assert next_index == 1
            assert DeadlockSignature.from_bytes(blobs[0]).sig_id == sig.sig_id
        finally:
            endpoint.close()

    def test_rejection_propagates(self, live_server, shared_factory):
        server, url = live_server
        endpoint = SocketEndpoint(url)
        try:
            sig = shared_factory.make_valid()
            assert endpoint.add(sig.to_bytes(), "bogus-token") is False
        finally:
            endpoint.close()

    def test_persistent_connection_many_requests(self, live_server, shared_factory):
        server, url = live_server
        endpoint = SocketEndpoint(url)
        try:
            # Fresh token per add: adjacency is per-user and must not bite.
            for _ in range(5):
                token = endpoint.issue_token()
                assert endpoint.add(shared_factory.make_valid().to_bytes(), token)
            next_index, blobs, _ = endpoint.get_page(0, 4096)
            assert next_index == 5
            assert len(blobs) == 5
        finally:
            endpoint.close()

    def test_concurrent_clients(self, live_server, shared_factory):
        server, url = live_server
        sigs = [shared_factory.make_valid() for _ in range(12)]
        failures = []

        def client(batch):
            endpoint = SocketEndpoint(url)
            try:
                for sig in batch:
                    token = endpoint.issue_token()
                    if not endpoint.add(sig.to_bytes(), token):
                        failures.append(sig.sig_id)
                endpoint.get_page(0, 4096)
            except Exception as exc:  # pragma: no cover
                failures.append(exc)
            finally:
                endpoint.close()

        threads = [
            threading.Thread(target=client, args=(sigs[i::3],)) for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert not failures
        unique = len({s.sig_id for s in sigs})
        assert len(server.database) == unique

    def test_unknown_op_returns_error(self, live_server):
        from repro.server.protocol import read_frame, write_frame
        from repro.util.encoding import canonical_json, from_canonical_json

        _, url = live_server
        sock = dial(url, timeout=2.0)
        try:
            write_frame(sock, canonical_json({"op": "EXPLODE"}))
            response = from_canonical_json(read_frame(sock))
            assert response["ok"] is False
            assert "EXPLODE" in response["error"]
        finally:
            sock.close()

    def test_malformed_frame_closes_cleanly(self, live_server):
        _, url = live_server
        sock = dial(url, timeout=2.0)
        try:
            sock.sendall(b"\xff\xff\xff\xff")  # absurd length header
            sock.settimeout(2.0)
            # Server drops the connection; recv returns EOF eventually.
            assert sock.recv(4096) == b""
        finally:
            sock.close()

    def test_stats_op(self, live_server, shared_factory):
        server, url = live_server
        endpoint = SocketEndpoint(url)
        try:
            token = endpoint.issue_token()
            endpoint.add(shared_factory.make_valid().to_bytes(), token)
            from repro.server.protocol import read_frame, write_frame
            from repro.util.encoding import canonical_json, from_canonical_json

            sock = dial(url, timeout=2.0)
            try:
                write_frame(sock, canonical_json({"op": "STATS"}))
                stats = from_canonical_json(read_frame(sock))
                assert stats["ok"] and stats["database_size"] == 1
            finally:
                sock.close()
        finally:
            endpoint.close()


def _make_server(seed: int) -> CommunixServer:
    return CommunixServer(
        authority=UserIdAuthority(rng=random.Random(seed)),
        clock=ManualClock(start=1_000_000.0),
    )


def _tcp_wmem_max() -> int:
    """The most a TCP socket's send buffer autotunes to (0: unknown)."""
    try:
        with open("/proc/sys/net/ipv4/tcp_wmem") as f:
            return int(f.read().split()[2])
    except (OSError, IndexError, ValueError):
        return 0


class TestMultiEndpoint:
    def test_unix_endpoint_serves_requests(self, tmp_path, shared_factory):
        path = str(tmp_path / "server.sock")
        transport = ServerTransport(
            _make_server(21), endpoints=[f"unix://{path}"]
        )
        transport.start()
        endpoint = SocketEndpoint(f"unix://{path}")
        try:
            token = endpoint.issue_token()
            sig = shared_factory.make_valid()
            assert endpoint.add(sig.to_bytes(), token)
            next_index, blobs, more = endpoint.get_page(0, 10)
            assert next_index == 1 and len(blobs) == 1 and not more
        finally:
            endpoint.close()
            transport.stop()
        # Clean shutdown removes the socket file.
        assert not os.path.exists(path)

    def test_tcp_and_unix_served_simultaneously(self, tmp_path,
                                                shared_factory):
        """One server, one database, two transports: an ADD over TCP is
        visible to a GET over the UNIX socket."""
        path = str(tmp_path / "both.sock")
        server = _make_server(22)
        transport = ServerTransport(
            server, endpoints=["tcp://127.0.0.1:0", f"unix://{path}"]
        )
        transport.start()
        url = transport.bound_endpoints[0].url()
        assert len(transport.bound_endpoints) == 2
        tcp = SocketEndpoint(url)
        unix = SocketEndpoint(f"unix://{path}")
        try:
            sig = shared_factory.make_valid()
            assert tcp.add(sig.to_bytes(), tcp.issue_token())
            next_index, blobs, _ = unix.get_page(0, 4096)
            assert next_index == 1
            assert DeadlockSignature.from_bytes(blobs[0]).sig_id == sig.sig_id
        finally:
            tcp.close()
            unix.close()
            transport.stop()
        assert transport.open_fds() == []
        assert not os.path.exists(path)

    def test_stale_socket_file_does_not_block_restart(self, tmp_path):
        """A server that died uncleanly leaves its socket file; the next
        start must reclaim the address."""
        path = str(tmp_path / "stale.sock")
        import socket as socket_module
        leftover = socket_module.socket(socket_module.AF_UNIX,
                                        socket_module.SOCK_STREAM)
        leftover.bind(path)
        leftover.listen(1)
        leftover.close()  # crash without unlink: file remains
        assert os.path.exists(path)
        transport = ServerTransport(_make_server(23),
                                    endpoints=[unix_endpoint(path)])
        transport.start()
        endpoint = SocketEndpoint(f"unix://{path}")
        try:
            assert endpoint.issue_token()
        finally:
            endpoint.close()
            transport.stop()
        assert not os.path.exists(path)


class TestEndpointRobustness:
    def test_endpoint_raises_when_server_gone(self, shared_factory):
        endpoint = SocketEndpoint("tcp://127.0.0.1:1")  # nothing listens there
        with pytest.raises(ProtocolError):
            endpoint.get_page(0, 4096)


def _open_fd_count() -> int | None:
    import os

    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:  # non-Linux fallback: rely on transport.open_fds()
        return None


class TestShutdown:
    def test_stop_closes_open_connections_no_fd_leak(self, shared_factory):
        """Regression for the thread-per-connection stop() leak: every
        registered connection and internal FD must be closed on stop()."""
        server = CommunixServer(
            authority=UserIdAuthority(rng=random.Random(4)),
            clock=ManualClock(start=1_000_000.0),
        )
        before = _open_fd_count()
        transport = ServerTransport(server)
        transport.start()
        url = transport.bound_endpoints[0].url()
        endpoints = [SocketEndpoint(url) for _ in range(20)]
        try:
            for endpoint in endpoints:
                # A round trip: the loop registers a connection before it
                # answers on it.
                endpoint.issue_token()
            assert transport.connection_count == 20
            transport.stop()
            assert transport.connection_count == 0
            assert transport.open_fds() == []
            # Server side hung up: clients observe EOF, not a hang.
            with pytest.raises(ProtocolError):
                endpoints[0].get_page(0, 4096)
        finally:
            for endpoint in endpoints:
                endpoint.close()
        after = _open_fd_count()
        if before is not None and after is not None:
            assert after <= before

    def test_stop_drains_in_flight_response(self, live_server, shared_factory):
        server, url = live_server
        endpoint = SocketEndpoint(url)
        try:
            token = endpoint.issue_token()
            assert endpoint.add(shared_factory.make_valid().to_bytes(), token)
        finally:
            endpoint.close()

    def test_stop_idempotent(self):
        server = CommunixServer(
            authority=UserIdAuthority(rng=random.Random(5)),
            clock=ManualClock(start=1_000_000.0),
        )
        transport = ServerTransport(server)
        transport.stop()  # never started: no-op
        transport.start()
        transport.stop()
        transport.stop()
        assert transport.open_fds() == []

    def test_restart_after_stop(self, shared_factory):
        server = CommunixServer(
            authority=UserIdAuthority(rng=random.Random(6)),
            clock=ManualClock(start=1_000_000.0),
        )
        transport = ServerTransport(server)
        transport.start()
        transport.stop()
        transport.start()
        url = transport.bound_endpoints[0].url()
        endpoint = SocketEndpoint(url)
        try:
            token = endpoint.issue_token()
            assert endpoint.add(shared_factory.make_valid().to_bytes(), token)
        finally:
            endpoint.close()
            transport.stop()


class TestEventLoopConcurrency:
    def test_many_persistent_connections_without_thread_per_conn(
            self, shared_factory):
        """128 simultaneous persistent connections must not cost 128 server
        threads — the event loop plus a bounded worker pool serves them."""
        server = CommunixServer(
            authority=UserIdAuthority(rng=random.Random(7)),
            clock=ManualClock(start=1_000_000.0),
        )
        transport = ServerTransport(server, workers=4)
        transport.start()
        url = transport.bound_endpoints[0].url()
        threads_before = threading.active_count()
        endpoints = [SocketEndpoint(url) for _ in range(128)]
        try:
            for endpoint in endpoints:
                endpoint.issue_token()
            assert transport.connection_count == 128
            # Every connection stays open; requests still get answered.
            for endpoint in endpoints[::8]:
                next_index, blobs, _ = endpoint.get_page(0, 4096)
                assert next_index == len(server.database)
            # Thread growth is the worker pool (<=4), not one per conn.
            assert threading.active_count() - threads_before <= 8
        finally:
            for endpoint in endpoints:
                endpoint.close()
            transport.stop()

    def test_idle_connections_reaped(self):
        server = CommunixServer(
            authority=UserIdAuthority(rng=random.Random(8)),
            clock=ManualClock(start=1_000_000.0),
        )
        transport = ServerTransport(server, idle_timeout=0.3)
        transport.start()
        url = transport.bound_endpoints[0].url()
        try:
            from repro.server.protocol import read_frame, write_frame
            from repro.util.encoding import canonical_json

            sock = dial(url, timeout=2.0)
            try:
                # A round trip: the loop registers a connection before it
                # answers on it.
                write_frame(sock, canonical_json({"op": "STATS"}))
                assert read_frame(sock)
                assert transport.connection_count == 1
                sock.settimeout(5.0)
                assert sock.recv(1) == b""  # server closed the idle conn
                assert transport.connection_count == 0
            finally:
                sock.close()
        finally:
            transport.stop()

    def test_stalled_reader_is_reaped(self):
        """A peer that requests a response and then never reads it must
        not hold its connection (and buffered bytes) forever — write
        stalls count as idleness."""
        from repro.core.signature import CallStack, Frame, ThreadSignature
        from repro.server.protocol import write_frame
        from repro.util.encoding import canonical_json

        server = CommunixServer(
            authority=UserIdAuthority(rng=random.Random(9)),
            clock=ManualClock(start=1_000_000.0),
        )
        page, page_bytes = 2048, 0
        for uid in range(1, page + 1):
            # ~8 KB each: one page is ~16 MB, several times what the
            # kernel buffers for one socket.
            stacks = [CallStack(Frame(f"stall.C{uid}.{t}.{i}", "m", i + 1)
                                for i in range(50)) for t in range(4)]
            sig = DeadlockSignature(threads=(
                ThreadSignature(outer=stacks[0], inner=stacks[1]),
                ThreadSignature(outer=stacks[2], inner=stacks[3])))
            blob = sig.to_bytes()
            page_bytes += len(blob)
            server.database.append(sig, blob, uid)
        if _tcp_wmem_max() * 2 >= page_bytes:
            pytest.skip("tcp_wmem lets the kernel buffer the whole page")
        transport = ServerTransport(server, idle_timeout=0.5)
        transport.start()
        url = transport.bound_endpoints[0].url()
        try:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(10.0)
            sock.connect(parse_endpoint(url).sockaddr())
            write_frame(sock, canonical_json(
                {"op": "GET", "from_index": 0, "max_count": page}))
            # The first bytes arrive once the whole response is queued and
            # its first write is made; the kernel holds a fraction of it.
            assert len(sock.recv(4, socket.MSG_WAITALL)) == 4
            gauges = server.metrics.snapshot()["gauges"]
            assert gauges["net.output_backlog_bytes"] > 0  # a stalled write
            deadline = time.monotonic() + 10.0
            while (transport.connection_count > 0
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert transport.connection_count == 0
            gauges = server.metrics.snapshot()["gauges"]
            assert gauges["net.output_backlog_bytes"] == 0
            sock.close()
        finally:
            transport.stop()

    def test_pipelined_requests_answered_in_order(self, live_server):
        """Multiple frames sent before reading any response come back in
        request order (per-connection serialization)."""
        from repro.server.protocol import read_frame, write_frame
        from repro.util.encoding import canonical_json, from_canonical_json

        _, url = live_server
        sock = dial(url, timeout=5.0)
        try:
            for _ in range(5):
                write_frame(sock, canonical_json({"op": "ISSUE_ID"}))
            write_frame(sock, canonical_json({"op": "STATS"}))
            for _ in range(5):
                response = from_canonical_json(read_frame(sock))
                assert response["ok"] and "token" in response
            stats = from_canonical_json(read_frame(sock))
            assert stats["ok"] and "database_size" in stats
        finally:
            sock.close()


class TestPooledReceive:
    """Regression for the batched-syscall read path: the loop thread
    borrows one pooled buffer per read event instead of allocating a
    fresh 256 KB ``bytes`` per ``recv`` (PR 6)."""

    def test_many_requests_reuse_one_buffer(self, shared_factory):
        server = _make_server(31)
        transport = ServerTransport(server)
        transport.start()
        url = transport.bound_endpoints[0].url()
        endpoint = SocketEndpoint(url)
        try:
            for _ in range(40):
                token = endpoint.issue_token()
                assert endpoint.add(
                    shared_factory.make_valid().to_bytes(), token
                )
            # Reads happen one at a time on the single loop thread, so
            # steady state is exactly one pool allocation (a transient
            # second borrow is tolerated, unbounded growth is the bug).
            assert transport._recv_pool.allocated <= 2
            assert transport._recv_pool.free_count >= 1
        finally:
            endpoint.close()
            transport.stop()


class TestWakeup:
    def test_wake_during_drain_is_not_lost(self):
        """Regression for the lost wakeup: a worker's ``_wake()`` landing
        while the loop is inside ``_drain_wakeup()`` has its byte swallowed
        by the drain, so the drain must leave the flag *disarmed* — else
        every later completion skips its send and waits out the 0.2 s
        select timeout."""
        transport = ServerTransport(_make_server(41))  # never started
        sent = []

        class SendEnd:
            def send(self, data):
                sent.append(data)

        class RecvEnd:
            def recv(self, size):
                transport._wake()  # races the drain; its byte is consumed
                raise BlockingIOError

        transport._wakeup_send = SendEnd()
        transport._wakeup_recv = RecvEnd()
        transport._drain_wakeup()
        assert len(sent) == 1
        transport._wake()
        assert len(sent) == 2  # the next completion still wakes the loop
