"""Endpoint URL parsing/formatting and the listen/dial helpers."""

import os
import socket

import pytest

from repro.net import (
    Endpoint,
    EndpointError,
    cleanup_listener,
    dial,
    listen,
    parse_endpoint,
    tcp_endpoint,
    unix_endpoint,
)


class TestParseFormat:
    @pytest.mark.parametrize("url", [
        "tcp://127.0.0.1:7199",
        "tcp://0.0.0.0:0",
        "tcp://example.com:65535",
        "unix:///var/run/communix.sock",
        "unix:///tmp/x",
        "unix://@communix",
    ])
    def test_round_trip(self, url):
        endpoint = parse_endpoint(url)
        assert endpoint.url() == url
        assert parse_endpoint(endpoint.url()) == endpoint

    def test_tcp_fields(self):
        endpoint = parse_endpoint("tcp://10.1.2.3:81")
        assert endpoint.is_tcp and not endpoint.is_unix
        assert (endpoint.host, endpoint.port) == ("10.1.2.3", 81)
        assert endpoint.sockaddr() == ("10.1.2.3", 81)
        assert endpoint.family == socket.AF_INET

    def test_unix_fields(self):
        endpoint = parse_endpoint("unix:///run/x.sock")
        assert endpoint.is_unix and not endpoint.is_tcp
        assert endpoint.path == "/run/x.sock"
        assert endpoint.sockaddr() == "/run/x.sock"
        assert not endpoint.is_abstract

    def test_abstract_namespace(self):
        endpoint = parse_endpoint("unix://@communix-test")
        assert endpoint.is_abstract
        # The kernel-facing form carries the NUL prefix, the URL the @.
        assert endpoint.sockaddr() == "\0communix-test"
        assert endpoint.url() == "unix://@communix-test"

    @pytest.mark.parametrize("removed", [
        "127.0.0.1:7199",
        ("127.0.0.1", 7199),
    ])
    def test_bare_host_port_and_tuple_rejected(self, removed):
        with pytest.raises(EndpointError, match="tcp://"):
            parse_endpoint(removed)

    def test_endpoint_passes_through(self):
        endpoint = tcp_endpoint("localhost", 99)
        assert parse_endpoint(endpoint) is endpoint

    @pytest.mark.parametrize("bad", [
        "",
        "   ",
        "nonsense",
        "tcp://",
        "tcp://hostonly",
        "tcp://host:notaport",
        "tcp://host:70000",
        "tcp://:7199",
        "unix://",
        "unix://relative/path",
        "unix:///",
        "unix://@",
        "http://host:80",
        42,
        ("only-one",),
    ])
    def test_invalid_addresses_raise(self, bad):
        with pytest.raises(EndpointError):
            parse_endpoint(bad)

    def test_constructors(self):
        assert tcp_endpoint().port == 0
        assert unix_endpoint("/tmp/a").url() == "unix:///tmp/a"


class TestListenDial:
    def test_tcp_ephemeral_port_resolved(self):
        sock, bound = listen(tcp_endpoint("127.0.0.1", 0))
        try:
            assert bound.port > 0
            assert sock.getsockname()[1] == bound.port
            assert not sock.getblocking()
        finally:
            sock.close()

    def test_unix_listen_dial_roundtrip(self, tmp_path):
        endpoint = unix_endpoint(str(tmp_path / "srv.sock"))
        sock, bound = listen(endpoint)
        try:
            assert bound == endpoint
            client = dial(endpoint, timeout=2.0)
            client.close()
        finally:
            sock.close()
            cleanup_listener(endpoint)
        assert not os.path.exists(endpoint.path)

    def test_stale_socket_file_removed_on_bind(self, tmp_path):
        """A dead server's leftover socket file must not block rebinding."""
        endpoint = unix_endpoint(str(tmp_path / "stale.sock"))
        sock, _ = listen(endpoint)
        sock.close()  # dies without cleanup: file stays behind
        assert os.path.exists(endpoint.path)
        sock2, _ = listen(endpoint)  # stale file is probed and removed
        try:
            dial(endpoint, timeout=2.0).close()
        finally:
            sock2.close()
            cleanup_listener(endpoint)

    def test_live_socket_refuses_second_bind(self, tmp_path):
        endpoint = unix_endpoint(str(tmp_path / "live.sock"))
        sock, _ = listen(endpoint)
        try:
            with pytest.raises(EndpointError, match="another server"):
                listen(endpoint)
        finally:
            sock.close()
            cleanup_listener(endpoint)

    def test_non_socket_file_refuses_bind(self, tmp_path):
        path = tmp_path / "notasocket"
        path.write_text("hello")
        with pytest.raises(EndpointError, match="not a socket"):
            listen(unix_endpoint(str(path)))
        assert path.exists()  # never deleted someone's real file

    def test_cleanup_listener_is_idempotent_and_scoped(self, tmp_path):
        endpoint = unix_endpoint(str(tmp_path / "gone.sock"))
        cleanup_listener(endpoint)  # nothing there: no error
        cleanup_listener(tcp_endpoint("127.0.0.1", 1))  # tcp: no-op
        cleanup_listener(parse_endpoint("unix://@abstract-x"))  # no file
