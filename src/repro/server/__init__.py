"""The Communix server: centralized signature distribution (paper §III-B/C2).

The server collects deadlock signatures from all machines and serves them
back incrementally.  It processes two request types — ``ADD(sig)`` and
``GET(k, m)`` ("send me up to m signatures from the database starting
from index k") — and performs server-side validation: encrypted sender IDs, a
per-user-per-day quota, and the same-user adjacency check.

:class:`CommunixServer` is the request-processing core, directly invokable
(how Fig. 2 benchmarks it); :class:`ServerTransport` exposes it over TCP
with a length-prefixed protocol (how Fig. 3 benchmarks it).
"""

from repro.server.database import SignatureDatabase
from repro.server.protocol import (
    read_frame,
    write_frame,
    encode_get_page_response,
    decode_get_page,
)
from repro.server.ratelimit import DailyQuota
from repro.server.server import AddOutcome, CommunixServer, ServerConfig
from repro.server.transport import ServerTransport
from repro.server.validation import ServerSideValidator

__all__ = [
    "SignatureDatabase",
    "read_frame",
    "write_frame",
    "encode_get_page_response",
    "decode_get_page",
    "DailyQuota",
    "AddOutcome",
    "CommunixServer",
    "ServerConfig",
    "ServerTransport",
    "ServerSideValidator",
]
