"""STATS versioning: the v1 wire shape is frozen, v2 is a superset."""

import random

import pytest

from repro.client.endpoints import SocketEndpoint
from repro.crypto.userid import UserIdAuthority
from repro.obs import Histogram
from repro.server.protocol import (
    decode_stats_version,
    encode_request,
    encode_stats_request,
)
from repro.server.server import CommunixServer, ServerConfig
from repro.server.transport import ServerTransport
from repro.util.clock import ManualClock
from repro.util.errors import ProtocolError

V1_KEYS = {
    "ok", "database_size", "adds_accepted", "gets_served",
    "token_cache_hits", "token_cache_misses",
}


@pytest.fixture
def server(shared_factory):
    server = CommunixServer(
        authority=UserIdAuthority(rng=random.Random(5)),
        clock=ManualClock(start=1_000_000.0),
    )
    token = server.issue_user_token()
    for _ in range(3):
        server.process_add(shared_factory.make_valid().to_bytes(),
                           server.issue_user_token())
    server.process_add(b"garbage", token)  # one malformed rejection
    server.process_get_wire(0, 100)  # the transport's GET path (timed)
    return server


class TestStatsPayload:
    def test_v1_shape_is_frozen(self, server):
        payload = server.stats_payload(version=1)
        assert set(payload) == V1_KEYS
        assert payload["ok"] is True
        assert payload["adds_accepted"] == 3
        assert payload["gets_served"] == 1

    def test_v2_is_a_superset_of_v1(self, server):
        v1 = server.stats_payload(version=1)
        v2 = server.stats_payload(version=2)
        for key, value in v1.items():
            assert v2[key] == value
        assert v2["version"] == 2
        assert v2["signatures_served"] == 3
        assert v2["adds_rejected"].get("malformed") == 1
        assert v2["database_segments"] >= 1
        assert "metrics" in v2

    def test_v2_stage_histograms_decode_with_loadgen(self, server):
        histograms = server.stats_payload(version=2)["metrics"]["histograms"]
        validate = histograms["stage.validate"]
        # 3 accepted ADDs went through validation; the malformed one was
        # rejected at parse, before the validator ran.
        assert validate["count"] == 3
        decoded = Histogram.from_wire(validate)
        assert decoded.count == 3
        assert decoded.percentile(99) > 0.0
        assert histograms["stage.db_append"]["count"] == 3
        assert histograms["stage.db_read"]["count"] == 1

    def test_future_version_clamps_to_newest(self, server):
        payload = server.stats_payload(version=99)
        assert payload["version"] == 2

    def test_rejection_snapshot_counts_exactly(self, server):
        # Regression: snapshot() used to read each rejection counter
        # twice (once for the emptiness test, once for the value), so a
        # concurrent increment between the reads could be dropped or
        # double-reported.  One read, used for both, counts exactly.
        for _ in range(4):
            server.process_add(b"garbage", server.issue_user_token())
        assert server.stats.adds_rejected["malformed"] == 5

    def test_metrics_disabled_payload_is_empty_but_versioned(self):
        server = CommunixServer(
            config=ServerConfig(metrics_enabled=False),
            authority=UserIdAuthority(rng=random.Random(5)),
        )
        assert server.metrics.enabled is False
        payload = server.stats_payload(version=2)
        assert payload["version"] == 2
        assert payload["metrics"] == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


class TestStatsRequestCoding:
    def test_v1_request_is_byte_identical_to_legacy(self):
        assert encode_stats_request(1) == encode_request({"op": "STATS"})

    def test_v2_request_carries_version(self):
        assert b'"version"' in encode_stats_request(2)

    def test_decode_defaults_to_v1(self):
        assert decode_stats_version({"op": "STATS"}) == 1
        assert decode_stats_version({"op": "STATS", "version": 2}) == 2

    @pytest.mark.parametrize("bad", [True, False, "2", 2.0, 0, -1, None])
    def test_decode_rejects_malformed_versions(self, bad):
        with pytest.raises(ProtocolError):
            decode_stats_version({"op": "STATS", "version": bad})


class TestStatsOverTheWire:
    @pytest.fixture
    def live(self):
        server = CommunixServer(
            authority=UserIdAuthority(rng=random.Random(7)),
            clock=ManualClock(start=1_000_000.0),
        )
        transport = ServerTransport(server)
        transport.start()
        url = transport.bound_endpoints[0].url()
        endpoint = SocketEndpoint(url)
        yield server, endpoint
        endpoint.close()
        transport.stop()

    def test_v1_and_v2_round_trip(self, live, shared_factory):
        server, endpoint = live
        token = endpoint.issue_token()
        assert endpoint.add(shared_factory.make_valid().to_bytes(), token)
        v1 = endpoint.stats(version=1)
        assert set(v1) == V1_KEYS  # a v1 client sees exactly the old shape
        v2 = endpoint.stats()
        assert v2.get("version", 1) == 2
        assert v2["adds_accepted"] == v1["adds_accepted"] == 1
        stages = v2["metrics"]["histograms"]
        assert stages["stage.validate"]["count"] >= 1
        # Transport-level stages are live over a real socket.
        assert stages["stage.handler"]["count"] >= 1
        assert stages["stage.queue_wait"]["count"] >= 1
