"""The --admin-addr observability plane: plaintext HTTP on the event loop."""

import json
import random
import socket

import pytest

from repro.client.endpoints import SocketEndpoint
from repro.crypto.userid import UserIdAuthority
from repro.server.server import CommunixServer, ServerConfig
from repro.server.transport import ServerTransport
from repro.util.clock import ManualClock


def http_get(host: str, port: int, target: str, method: str = "GET",
             timeout: float = 5.0) -> tuple[int, dict, bytes]:
    """Minimal HTTP/1.0 round-trip: (status, headers, body)."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(f"{method} {target} HTTP/1.0\r\n"
                     f"Host: {host}\r\n\r\n".encode("ascii"))
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


@pytest.fixture
def plane(shared_factory):
    server = CommunixServer(
        config=ServerConfig(),
        authority=UserIdAuthority(rng=random.Random(9)),
        clock=ManualClock(start=1_000_000.0),
    )
    transport = ServerTransport(
        server, admin_endpoints=["tcp://127.0.0.1:0"]
    )
    transport.start()
    admin = transport.bound_admin_endpoints[0]
    endpoint = SocketEndpoint(transport.bound_endpoints[0])
    token = endpoint.issue_token()
    assert endpoint.add(shared_factory.make_valid().to_bytes(), token)
    yield server, endpoint, admin.host, admin.port
    endpoint.close()
    transport.stop()


class TestAdminEndpoints:
    def test_metrics_is_prometheus_text(self, plane):
        _, _, host, port = plane
        status, headers, body = http_get(host, port, "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert int(headers["content-length"]) == len(body)
        text = body.decode()
        assert "communix_adds_accepted_total 1" in text
        assert "# TYPE communix_stage_validate_seconds summary" in text
        assert 'communix_stage_validate_seconds{quantile="0.99"}' in text

    def test_stats_is_v2_json(self, plane):
        server, _, host, port = plane
        status, headers, body = http_get(host, port, "/stats")
        assert status == 200
        assert headers["content-type"] == "application/json"
        payload = json.loads(body)
        assert payload["version"] == 2
        assert payload["adds_accepted"] == 1
        assert payload["metrics"]["histograms"]["stage.validate"]["count"] == 1

    def test_healthz(self, plane):
        _, _, host, port = plane
        status, _, body = http_get(host, port, "/healthz")
        assert status == 200
        assert body == b"ok\n"

    def test_unknown_path_404(self, plane):
        _, _, host, port = plane
        status, _, _ = http_get(host, port, "/nope")
        assert status == 404

    def test_non_get_405(self, plane):
        _, _, host, port = plane
        status, _, _ = http_get(host, port, "/metrics", method="POST")
        assert status == 405

    def test_scrape_reconciles_with_request_counts(self, plane, shared_factory):
        server, endpoint, host, port = plane
        for _ in range(4):
            token = endpoint.issue_token()
            assert endpoint.add(shared_factory.make_valid().to_bytes(), token)
        endpoint.get_page(0, 4096)
        _, _, body = http_get(host, port, "/metrics")
        metrics = {}
        for line in body.decode().splitlines():
            if line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            metrics[name] = float(value)
        assert metrics["communix_adds_accepted_total"] == 5
        assert metrics["communix_gets_served_total"] == 1
        assert metrics["communix_stage_db_append_seconds_count"] == 5
        assert metrics["communix_stage_flush_seconds_count"] >= 5

    def test_admin_requests_counted(self, plane):
        server, _, host, port = plane
        http_get(host, port, "/healthz")
        http_get(host, port, "/metrics")
        snap = server.metrics.snapshot()
        assert snap["counters"]["net.admin_requests"] >= 2

    def test_oversized_request_is_dropped(self, plane):
        _, _, host, port = plane
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b"GET /" + b"a" * 9000 + b" HTTP/1.0\r\n")
            # The 8 KB cap closes the connection without a response.
            sock.settimeout(5.0)
            assert sock.recv(65536) == b""

    def test_connection_closes_after_response(self, plane):
        _, _, host, port = plane
        status, headers, _ = http_get(host, port, "/healthz")
        assert status == 200
        assert headers.get("connection") == "close"


class TestTracesEndpoint:
    def test_traces_lists_slowest_and_exemplars(self, plane):
        _, _, host, port = plane
        status, headers, body = http_get(host, port, "/traces")
        assert status == 200
        assert headers["content-type"] == "application/json"
        payload = json.loads(body)
        traces = payload["traces"]
        assert traces, "the fixture's ADD must be retained"
        assert traces == sorted(traces, key=lambda t: t["total_ms"],
                                reverse=True)
        entry = traces[0]
        assert len(entry["trace_id"]) == 16
        assert entry["total_ms"] > 0.0
        assert "handler" in entry["stages_ms"]
        # The exemplar section maps histogram -> bucket -> trace id.
        exemplars = payload["exemplars"]
        assert "stage.handler" in exemplars

    def test_exemplar_trace_id_resolves(self, plane):
        # The acceptance loop for CI: take the slowest handler bucket's
        # exemplar, look it up by id, and get the full stage breakdown.
        _, _, host, port = plane
        _, _, body = http_get(host, port, "/traces")
        payload = json.loads(body)
        buckets = payload["exemplars"]["stage.handler"]
        trace_id = buckets[max(buckets, key=int)]
        status, _, body = http_get(host, port, f"/traces?id={trace_id}")
        assert status == 200
        found = json.loads(body)["trace"]
        assert found["trace_id"] == trace_id
        assert found["stages_ms"]

    def test_unknown_trace_id_404(self, plane):
        _, _, host, port = plane
        status, _, body = http_get(host, port, "/traces?id=" + "0" * 16)
        assert status == 404
        assert body == b"trace not found\n"


class TestAdminIsolation:
    def test_no_admin_endpoints_by_default(self):
        server = CommunixServer(authority=UserIdAuthority(rng=random.Random(1)))
        transport = ServerTransport(server)
        transport.start()
        try:
            assert transport.bound_admin_endpoints == []
        finally:
            transport.stop()

    def test_framed_protocol_still_served_on_main_endpoint(self, plane,
                                                           shared_factory):
        # The admin listener must not leak HTTP handling into the framed
        # protocol port (and vice versa: HTTP on the main port is just a
        # malformed frame, already covered by transport tests).
        _, endpoint, _, _ = plane
        token = endpoint.issue_token()
        assert endpoint.add(shared_factory.make_valid().to_bytes(), token)
        assert endpoint.stats()["version"] == 2
