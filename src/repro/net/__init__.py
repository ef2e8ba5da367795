"""``repro.net`` — shared endpoint layer (URL parsing, listen/dial).

The one place address handling lives: server transport, client endpoints,
the swarm engine, and the benchmarks all route through
:func:`parse_endpoint` / :class:`Endpoint` and spell addresses as
``tcp://`` / ``unix://`` URLs, so every layer serves TCP and UNIX-domain
transports interchangeably.
"""

from repro.net.bufpool import BufferPool
from repro.net.endpoints import (
    DEFAULT_TCP_HOST,
    Endpoint,
    EndpointError,
    adopt_listener,
    cleanup_listener,
    create_dial_socket,
    dial,
    listen,
    parse_endpoint,
    recv_listener_fd,
    reserve_tcp_port,
    send_listener_fd,
    tcp_endpoint,
    unix_endpoint,
)

__all__ = [
    "BufferPool",
    "DEFAULT_TCP_HOST",
    "Endpoint",
    "EndpointError",
    "adopt_listener",
    "cleanup_listener",
    "create_dial_socket",
    "dial",
    "listen",
    "parse_endpoint",
    "recv_listener_fd",
    "reserve_tcp_port",
    "send_listener_fd",
    "tcp_endpoint",
    "unix_endpoint",
]
