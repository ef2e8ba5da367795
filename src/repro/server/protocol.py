"""Wire protocol for the Communix server (length-prefixed frames over TCP).

Every message is one *frame*: a 4-byte big-endian length followed by that
many payload bytes.  Requests are canonical-JSON frames::

    {"op": "ADD", "token": "<hex>", "signature": "<base64 blob>"}
    {"op": "GET", "from_index": k, "max_count": m}
    {"op": "ISSUE_ID"}
    {"op": "STATS"}                  # v1: six counters (readiness probe)
    {"op": "STATS", "version": 2}    # + histograms/metrics

``ADD``/``ISSUE_ID``/``STATS`` responses are JSON frames.  ``GET`` is
paginated — ``max_count`` is required — and answered in one binary layout,
so the client can store and count signatures without JSON-decoding each
one (the agent parses them later, once, at startup).  The ``more`` flag
lets a cold client stream the database in bounded frames and loop until
drained::

    b"SIG2" | next_index:u32 | count:u32 | more:u8 | (len:u32 | blob)*count

Truncated or oversized frames, and any other GET response layout, raise
:class:`ProtocolError`.
"""

from __future__ import annotations

import base64
import socket
import struct
from typing import Any, Iterable

from repro.util.encoding import canonical_json, from_canonical_json
from repro.util.errors import ProtocolError

MAX_FRAME = 256 * 1024 * 1024  # GET(0) of a large database can be big
_GET_PAGE_MAGIC = b"SIG2"


# ----------------------------------------------------------------- framing
def write_frame(sock: socket.socket, payload: bytes) -> None:
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame too large: {len(payload)} bytes")
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining}/{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> bytes | None:
    """Read one frame; ``None`` on clean EOF before any bytes."""
    header = b""
    while len(header) < 4:
        chunk = sock.recv(4 - len(header))
        if not chunk:
            if header:
                raise ProtocolError("connection closed mid-header")
            return None
        header += chunk
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME:
        raise ProtocolError(f"declared frame length {length} exceeds maximum")
    return _recv_exact(sock, length)


# ---------------------------------------------------------------- requests
def encode_request(obj: dict[str, Any]) -> bytes:
    return canonical_json(obj)


def decode_request(payload: bytes) -> dict[str, Any]:
    try:
        obj = from_canonical_json(payload)
    except ValueError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "op" not in obj:
        raise ProtocolError("request must be an object with an 'op' field")
    return obj


def encode_add_request(blob: bytes, token: str) -> bytes:
    return encode_request(
        {
            "op": "ADD",
            "token": token,
            "signature": base64.b64encode(blob).decode("ascii"),
        }
    )


def decode_add_signature(request: dict[str, Any]) -> bytes:
    try:
        return base64.b64decode(request["signature"], validate=True)
    except (KeyError, ValueError, TypeError) as exc:
        raise ProtocolError(f"malformed ADD signature field: {exc}") from exc


def _checked_int(value: Any, field: str, *, minimum: int = 0) -> int:
    # bool is an int subclass; a client sending ``true`` is malformed.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"GET {field} must be an integer")
    if value < minimum:
        raise ProtocolError(f"GET {field} must be non-negative")
    return value


def encode_stats_request(version: int = 1) -> bytes:
    """A STATS request frame; ``version`` is omitted for v1."""
    if version <= 1:
        return encode_request({"op": "STATS"})
    return encode_request({"op": "STATS", "version": version})


def decode_stats_version(request: dict[str, Any]) -> int:
    """The schema version a STATS request asks for (absent -> 1).

    A non-integer version is malformed; an unknown *future* version is
    clamped to the newest schema this server speaks (the response carries
    its actual ``version`` field, so the client can tell).
    """
    raw = request.get("version", 1)
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
        raise ProtocolError("STATS version must be a positive integer")
    return raw


def decode_get_args(request: dict[str, Any]) -> tuple[int, int]:
    """Validated ``(from_index, max_count)`` of a GET request.

    Anything that is not a non-negative JSON integer — floats, strings,
    booleans, negatives — raises :class:`ProtocolError`, so a malformed
    request becomes a clean protocol-level error frame instead of an
    exception inside the server's worker pool.  ``max_count`` is required:
    every GET is one bounded page.
    """
    from_index = _checked_int(request.get("from_index", 0), "from_index")
    max_count = request.get("max_count")
    if max_count is None:
        raise ProtocolError("GET requires max_count (responses are paginated)")
    return from_index, _checked_int(max_count, "max_count")


# ------------------------------------------------------------ GET response
def pack_signature_record(blob: bytes) -> bytes:
    """One ``len:u32 | blob`` record of a GET response body.

    The database precomposes these per segment, so the transport can splice
    cached byte runs straight into a response instead of re-packing every
    blob on every request.
    """
    return struct.pack(">I", len(blob)) + blob


def get_page_response_parts(next_index: int, count: int,
                            chunks: Iterable[bytes], more: bool) -> list[bytes]:
    """Paginated GET response (``SIG2``) as a parts list."""
    return [_GET_PAGE_MAGIC,
            struct.pack(">IIB", next_index, count, 1 if more else 0),
            *chunks]


def encode_get_page_response(next_index: int, count: int,
                             chunks: Iterable[bytes], more: bool) -> bytes:
    """Paginated GET response (``SIG2``) from precomposed record chunks."""
    return b"".join(get_page_response_parts(next_index, count, chunks, more))


def _decode_records(payload: bytes, offset: int, count: int) -> list[bytes]:
    blobs: list[bytes] = []
    for _ in range(count):
        if offset + 4 > len(payload):
            raise ProtocolError("truncated GET response (length field)")
        (length,) = struct.unpack(">I", payload[offset:offset + 4])
        offset += 4
        if offset + length > len(payload):
            raise ProtocolError("truncated GET response (blob body)")
        blobs.append(payload[offset:offset + length])
        offset += length
    if offset != len(payload):
        raise ProtocolError("trailing bytes in GET response")
    return blobs


def count_get_page(payload: bytes) -> tuple[int, int, bool]:
    """(next_index, count, more) without materializing the blobs — what a
    load-generation client uses to follow a paginated drain cheaply."""
    if len(payload) < 13 or payload[:4] != _GET_PAGE_MAGIC:
        raise ProtocolError("malformed GET response header (want SIG2)")
    next_index, count, more = struct.unpack(">IIB", payload[4:13])
    return next_index, count, bool(more)


def decode_get_page(payload: bytes) -> tuple[int, list[bytes], bool]:
    """(next_index, blobs, more) from a ``SIG2`` GET response."""
    next_index, count, more = count_get_page(payload)
    return next_index, _decode_records(payload, 13, count), more
