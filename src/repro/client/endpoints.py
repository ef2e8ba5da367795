"""Server endpoints: how client-side components reach the Communix server.

All endpoints expose the same calls (the :class:`ServerEndpoint`
protocol): ``add(blob, token)``, ``get_page(from_index, max_count)`` and
``issue_token()``.  ``get_page`` is the download the client daemon loops
over, bounded per response by ``max_count`` and resumable via the
returned ``more`` flag.

Addressing goes through :mod:`repro.net`: :class:`SocketEndpoint` takes
an endpoint URL (``tcp://host:port``, ``unix:///path``, ``unix://@name``)
and speaks the same framed protocol over either family.
"""

from __future__ import annotations

import socket
import threading
from typing import Protocol

from repro.net import dial, parse_endpoint
from repro.server.protocol import (
    decode_get_page,
    encode_add_request,
    encode_request,
    encode_stats_request,
    read_frame,
    write_frame,
)
from repro.server.server import CommunixServer
from repro.util.encoding import from_canonical_json
from repro.util.errors import ProtocolError


class ServerEndpoint(Protocol):
    def add(self, blob: bytes, token: str) -> bool: ...

    def get_page(self, from_index: int, max_count: int
                 ) -> tuple[int, list[bytes], bool]: ...

    def issue_token(self) -> str: ...


class InProcessEndpoint:
    """Directly invokes a server's request-processing routines (no network).

    This is exactly the configuration the paper's Fig. 2 benchmarks: "we
    invoke the request processing routines from [N] simultaneous threads".
    """

    def __init__(self, server: CommunixServer):
        self._server = server

    def add(self, blob: bytes, token: str) -> bool:
        return self._server.process_add(blob, token).accepted

    def get_page(self, from_index: int, max_count: int
                 ) -> tuple[int, list[bytes], bool]:
        return self._server.process_get_page(from_index, max_count)

    def issue_token(self) -> str:
        return self._server.issue_user_token()


class SocketEndpoint:
    """A persistent client connection to a :class:`ServerTransport`,
    over TCP or a UNIX-domain socket.

    Thread-safe by serializing requests on the single connection; separate
    client threads should each own their endpoint (as the Fig. 3 benchmark
    threads do) to get connection-level parallelism.
    """

    def __init__(self, target, connect_timeout: float = 5.0,
                 io_timeout: float = 30.0):
        """``target`` is an endpoint URL or :class:`repro.net.Endpoint`."""
        self._endpoint = parse_endpoint(target)
        self._connect_timeout = connect_timeout
        self._io_timeout = io_timeout
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()

    @property
    def endpoint(self):
        return self._endpoint

    # ---------------------------------------------------------- connection
    def _connection(self) -> socket.socket:
        if self._sock is None:
            sock = dial(self._endpoint, timeout=self._connect_timeout)
            sock.settimeout(self._io_timeout)
            self._sock = sock
        return self._sock

    def close(self) -> None:
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                finally:
                    self._sock = None

    def _roundtrip(self, request: bytes) -> bytes:
        with self._lock:
            try:
                sock = self._connection()
                write_frame(sock, request)
                response = read_frame(sock)
            except OSError as exc:
                self._drop_connection()
                raise ProtocolError(f"server connection failed: {exc}") from exc
            if response is None:
                self._drop_connection()
                raise ProtocolError("server closed the connection")
            return response

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    # ------------------------------------------------------------ requests
    def add(self, blob: bytes, token: str) -> bool:
        response = self._roundtrip(encode_add_request(blob, token))
        decoded = from_canonical_json(response)
        return bool(decoded.get("ok"))

    def get_page(self, from_index: int, max_count: int
                 ) -> tuple[int, list[bytes], bool]:
        """One bounded page: ``(next_index, blobs, more)``.  The server
        clamps ``max_count`` to its own page cap; loop while ``more``."""
        return decode_get_page(self.get_raw(from_index, max_count))

    def get_raw(self, from_index: int, max_count: int) -> bytes:
        """The raw GET response — lets callers count signatures without
        materializing them (``protocol.count_get_page``)."""
        return self._roundtrip(
            encode_request(
                {"op": "GET", "from_index": from_index, "max_count": max_count}
            )
        )

    def issue_token(self) -> str:
        response = self._roundtrip(encode_request({"op": "ISSUE_ID"}))
        decoded = from_canonical_json(response)
        if not decoded.get("ok"):
            raise ProtocolError("server refused to issue a token")
        return str(decoded["token"])

    def stats(self, version: int = 2) -> dict:
        """The server's STATS response as a dict.

        Asking for v2 degrades gracefully: a pre-versioning server
        ignores the ``version`` field and answers in the v1 shape (no
        ``version`` key in the response), which callers detect with
        ``response.get("version", 1)``.
        """
        response = self._roundtrip(encode_stats_request(version))
        decoded = from_canonical_json(response)
        if not isinstance(decoded, dict) or not decoded.get("ok"):
            raise ProtocolError("server refused the STATS request")
        return decoded

