"""End-to-end: a guarded server over real sockets (transport + validator).

The flood here is a §III-C1 quota flood: one identity pushing distinct
valid-looking signatures.  The daily quota rejects them, the rejections
feed the guard's endpoint dimension, and the event loop starts shedding
the connection before parse/crypto — the full tentpole path.
"""

import itertools
import random
import time

import pytest

from repro.client.endpoints import SocketEndpoint
from repro.crypto.userid import UserIdAuthority
from repro.loadgen.signatures import off_path_flood_blobs
from repro.net import dial
from repro.server.protocol import (
    encode_add_request,
    read_frame,
    write_frame,
)
from repro.server.server import CommunixServer, ServerConfig
from repro.server.transport import ServerTransport
from repro.util.encoding import from_canonical_json


def make_guarded(clock=None, **config_overrides):
    defaults = dict(
        guard_enabled=True,
        guard_budget=16,
        guard_window_s=0.3,
        adjacency_check=False,
    )
    defaults.update(config_overrides)
    return CommunixServer(
        config=ServerConfig(**defaults),
        authority=UserIdAuthority(rng=random.Random(5)),
        clock=clock,
    )


@pytest.fixture
def guarded():
    server = make_guarded()
    transport = ServerTransport(server)
    transport.start()
    url = transport.bound_endpoints[0].url()
    yield server, url
    transport.stop()


def raw_add(sock, blob, token):
    write_frame(sock, encode_add_request(blob, token))
    reply = read_frame(sock)
    assert reply is not None
    return from_canonical_json(reply)


class TestGuardConstruction:
    def test_disabled_by_default(self):
        server = CommunixServer(
            authority=UserIdAuthority(rng=random.Random(5)))
        assert server.guard is None

    def test_enabled_by_config(self):
        server = make_guarded()
        assert server.guard is not None
        assert server.guard.config.budget == 16
        assert server.guard.config.window_s == 0.3

    def test_stats_v2_payload_has_guard_section(self, shared_factory):
        server = make_guarded()
        token = server.issue_user_token()
        server.process_add(shared_factory.make_valid().to_bytes(), token)
        payload = server.stats_payload(version=2)
        assert payload["guard"]["admitted"] == 1
        assert payload["guard"]["shed"] == {
            "uid": 0, "sig": 0, "endpoint": 0}


class TestBenignTrafficUnaffected:
    def test_clean_run_sheds_nothing(self, guarded, shared_factory):
        server, url = guarded
        endpoint = SocketEndpoint(url)
        try:
            tokens = [endpoint.issue_token() for _ in range(4)]
            accepted = 0
            for round_no in range(3):
                for token in tokens:
                    blob = shared_factory.make_valid().to_bytes()
                    if endpoint.add(blob, token):
                        accepted += 1
            assert accepted == 12
            stats = endpoint.stats(version=2)
            assert stats["guard"]["shed"] == {
                "uid": 0, "sig": 0, "endpoint": 0}
            assert stats["guard"]["throttled"] == 0
        finally:
            endpoint.close()


class TestQuotaFloodIsShed:
    def test_flooding_endpoint_hits_the_loop_shed(self, guarded):
        server, url = guarded
        issuer = SocketEndpoint(url)
        try:
            token = issuer.issue_token()
        finally:
            issuer.close()
        blobs = itertools.cycle(off_path_flood_blobs(400, seed=77))
        verdicts: dict[str, int] = {}
        with dial(url, timeout=10.0) as sock:
            deadline = time.monotonic() + 15.0
            for blob in blobs:
                reply = raw_add(sock, blob, token)
                verdict = str(reply.get("verdict", "ok" if reply.get("ok")
                                        else "unknown"))
                verdicts[verdict] = verdicts.get(verdict, 0) + 1
                if verdicts.get("shed", 0) >= 5:
                    break
                assert time.monotonic() < deadline, (
                    f"no shed after {sum(verdicts.values())} adds: "
                    f"{verdicts}")
        # The quota rejected the early flood; the guard then classified
        # the endpoint and the event loop shed the rest pre-parse.
        assert verdicts.get("quota_exceeded", 0) > 0
        assert verdicts.get("shed", 0) >= 5
        guard = server.guard
        assert guard.shed_endpoint.value() > 0
        snapshot = server.metrics.snapshot()
        assert snapshot["counters"]["net.guard_loop_shed"] > 0

    def test_shed_responses_are_tarpitted(self, guarded):
        server, url = guarded
        issuer = SocketEndpoint(url)
        try:
            token = issuer.issue_token()
        finally:
            issuer.close()
        blobs = itertools.cycle(off_path_flood_blobs(400, seed=78))
        tarpit = server.guard.config.tarpit_s
        with dial(url, timeout=10.0) as sock:
            shed_gaps = []
            deadline = time.monotonic() + 15.0
            for blob in blobs:
                started = time.monotonic()
                reply = raw_add(sock, blob, token)
                if reply.get("verdict") == "shed":
                    shed_gaps.append(time.monotonic() - started)
                    if len(shed_gaps) >= 5:
                        break
                if time.monotonic() > deadline:
                    pytest.fail("flood was never shed")
        # Every shed response waited out the tarpit delay, so a
        # closed-loop flooder is throttled to ~1/tarpit_s req/s.
        assert min(shed_gaps) >= tarpit * 0.5


class TestUnixEndpointKeys:
    def test_unix_connections_get_distinct_keys(self, tmp_path):
        server = make_guarded()
        transport = ServerTransport(server,
                                    endpoints=[f"unix://{tmp_path}/g.sock"])
        transport.start()
        try:
            a = SocketEndpoint(f"unix://{tmp_path}/g.sock")
            b = SocketEndpoint(f"unix://{tmp_path}/g.sock")
            try:
                a.issue_token()
                b.issue_token()
                keys = {conn.endpoint_key
                        for conn in transport._conns.values()
                        if conn.endpoint_key is not None}
                assert len(keys) == 2
            finally:
                a.close()
                b.close()
        finally:
            transport.stop()
