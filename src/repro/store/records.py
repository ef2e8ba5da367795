"""On-disk record framing for the signature write-ahead log.

A log record mirrors the wire cache's ``len | payload`` shape with a
checksum between them::

    u32 len | u32 crc32 | payload          (all big-endian)

where ``len`` counts the *payload* bytes and ``crc32`` is
``zlib.crc32(payload)``.  The payload is a small envelope —

    u64 sender_uid | signature blob

— because the per-user adjacency index (§III-C2) must survive a restart
and the sender's uid is not part of the signature blob itself.

Torn tails are expected: a crash can leave a partial header, a partial
payload, or a payload whose checksum no longer matches.  :func:`scan_into`
therefore never raises on damage — it appends every record of the longest
valid prefix to the caller's ``uids``/``blobs`` columns and returns the
byte offset where that prefix ends, and the caller truncates the file
there.  Recovery keeps the records as those two columns end to end;
:func:`scan_records` is the same scan as a list of :class:`LogRecord`.
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple

_HEADER = struct.Struct(">II")
_UID = struct.Struct(">Q")

HEADER_BYTES = _HEADER.size
#: Sanity cap used while scanning: a length field above this is treated as
#: tail corruption, not as a real record.  Generous against the server's
#: 64 KiB signature cap, tight enough that a random bit-flip in a length
#: field cannot make the scanner walk gigabytes of garbage.
MAX_PAYLOAD_BYTES = 16 * 1024 * 1024


class LogRecord(NamedTuple):
    """One recovered record: the signature blob plus its sender."""

    sender_uid: int
    blob: bytes


def pack_record(blob: bytes, sender_uid: int) -> bytes:
    """Frame one signature blob as a durable log record."""
    payload = _UID.pack(sender_uid) + blob
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def record_size(blob: bytes) -> int:
    """On-disk bytes :func:`pack_record` will produce for ``blob``."""
    return HEADER_BYTES + _UID.size + len(blob)


def unpack_payload(payload: bytes) -> LogRecord:
    """Split a validated record payload into (sender_uid, blob)."""
    if len(payload) < _UID.size:
        raise ValueError("record payload shorter than its uid field")
    return LogRecord(_UID.unpack_from(payload)[0], payload[_UID.size:])


def scan_into(data: bytes, uids: list[int], blobs: list[bytes], *,
              verify_crc: bool = True) -> int:
    """Append the longest valid record prefix of ``data`` to the parallel
    ``uids``/``blobs`` columns; return the offset just past it.

    Anything beyond that offset is a torn tail (partial write or
    corruption) the caller should truncate away.  Each blob is sliced out
    of ``data`` once; the checksum runs over a ``memoryview`` of the
    payload and the uid is unpacked in place, so no payload is copied on
    the way.  With ``verify_crc`` off, checksums are skipped — the
    checkpointed-prefix fast path, where the manifest already vouches for
    the records — but framing is still parsed to slice the blobs.
    """
    header_at = _HEADER.unpack_from
    uid_at = _UID.unpack_from
    crc32 = zlib.crc32
    view = memoryview(data)
    offset = 0
    total = len(data)
    while offset + HEADER_BYTES <= total:
        length, crc = header_at(data, offset)
        if length < _UID.size or length > MAX_PAYLOAD_BYTES:
            break
        start = offset + HEADER_BYTES
        end = start + length
        if end > total:
            break
        if verify_crc and crc32(view[start:end]) != crc:
            break
        uids.append(uid_at(data, start)[0])
        blobs.append(data[start + _UID.size:end])
        offset = end
    return offset


def scan_records(data: bytes, *, verify_crc: bool = True
                 ) -> tuple[list[LogRecord], int]:
    """``(records, valid_bytes)`` — :func:`scan_into` as one list."""
    uids: list[int] = []
    blobs: list[bytes] = []
    valid_bytes = scan_into(data, uids, blobs, verify_crc=verify_crc)
    return list(map(LogRecord, uids, blobs)), valid_bytes
