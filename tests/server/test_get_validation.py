"""GET argument hardening: malformed ``from_index``/``max_count`` must
come back as clean protocol error frames, never as worker-pool crashes."""

import random

import pytest

from repro.crypto.userid import UserIdAuthority
from repro.net import dial
from repro.server.protocol import (
    count_get_page,
    decode_get_args,
    read_frame,
    write_frame,
)
from repro.server.server import CommunixServer, ServerConfig
from repro.server.transport import ServerTransport
from repro.util.clock import ManualClock
from repro.util.encoding import canonical_json, from_canonical_json
from repro.util.errors import ProtocolError


class TestDecodeGetArgs:
    def test_from_index_defaults_to_zero(self):
        assert decode_get_args({"op": "GET", "max_count": 8}) == (0, 8)

    @pytest.mark.parametrize("request_", [
        {"op": "GET"},
        {"op": "GET", "from_index": 3},
        {"op": "GET", "from_index": 3, "max_count": None},
    ])
    def test_missing_max_count_rejected(self, request_):
        with pytest.raises(ProtocolError, match="requires max_count"):
            decode_get_args(request_)

    def test_valid_pagination(self):
        request = {"op": "GET", "from_index": 7, "max_count": 64}
        assert decode_get_args(request) == (7, 64)

    @pytest.mark.parametrize("bad", [-1, -100, 1.5, "3", "abc", True,
                                     False, None, [], {}])
    def test_bad_from_index_rejected(self, bad):
        with pytest.raises(ProtocolError, match="from_index"):
            decode_get_args({"op": "GET", "from_index": bad})

    @pytest.mark.parametrize("bad", [-1, 2.0, "lots", True, [], {}])
    def test_bad_max_count_rejected(self, bad):
        with pytest.raises(ProtocolError, match="max_count"):
            decode_get_args({"op": "GET", "from_index": 0, "max_count": bad})


class TestServerCoreChecks:
    def test_non_integer_from_index_raises_protocol_error(self):
        server = CommunixServer(config=ServerConfig(require_token=False))
        with pytest.raises(ProtocolError, match="from_index"):
            server.process_get_page("3", 10)
        with pytest.raises(ProtocolError, match="from_index"):
            server.process_get_wire(2.5, 10)

    def test_negative_from_index_still_clamped_for_direct_callers(self):
        server = CommunixServer(config=ServerConfig(require_token=False))
        next_index, blobs, more = server.process_get_page(-5, 10)
        assert (next_index, blobs, more) == (0, [], False)


@pytest.fixture
def live_server():
    server = CommunixServer(
        authority=UserIdAuthority(rng=random.Random(33)),
        clock=ManualClock(start=1_000_000.0),
    )
    transport = ServerTransport(server)
    transport.start()
    url = transport.bound_endpoints[0].url()
    yield server, url
    transport.stop()


def roundtrip(sock, request: dict) -> dict:
    write_frame(sock, canonical_json(request))
    return from_canonical_json(read_frame(sock))


class TestWireRegression:
    @pytest.mark.parametrize("bad_from", [-1, 1.5, "abc", True])
    def test_bad_from_index_yields_clean_error(self, live_server, bad_from):
        _, url = live_server
        sock = dial(url, timeout=5.0)
        try:
            response = roundtrip(
                sock, {"op": "GET", "from_index": bad_from, "max_count": 4}
            )
            assert response["ok"] is False
            assert "from_index" in response["error"]
            # The connection survives: the next well-formed request works.
            follow_up = roundtrip(sock, {"op": "STATS"})
            assert follow_up["ok"] is True
        finally:
            sock.close()

    def test_get_without_max_count_yields_clean_error(self, live_server):
        """The unpaginated GET is gone: it gets an error frame, and the
        same connection then serves a paginated GET."""
        _, url = live_server
        sock = dial(url, timeout=5.0)
        try:
            response = roundtrip(sock, {"op": "GET", "from_index": 0})
            assert response["ok"] is False
            assert "max_count" in response["error"]
            write_frame(sock, canonical_json(
                {"op": "GET", "from_index": 0, "max_count": 4}))
            assert count_get_page(read_frame(sock)) == (0, 0, False)
        finally:
            sock.close()

    def test_bad_args_do_not_crash_the_worker_pool(self, live_server):
        """A burst of malformed GETs followed by a valid request on the
        same connection: every response arrives, in order."""
        _, url = live_server
        sock = dial(url, timeout=5.0)
        try:
            bad_requests = [
                {"op": "GET", "from_index": -7},
                {"op": "GET", "from_index": [1]},
                {"op": "GET", "from_index": 0, "max_count": -2},
                {"op": "GET", "from_index": 0, "max_count": "many"},
            ]
            for request in bad_requests:
                response = roundtrip(sock, request)
                assert response["ok"] is False
            assert roundtrip(sock, {"op": "STATS"})["ok"] is True
        finally:
            sock.close()
