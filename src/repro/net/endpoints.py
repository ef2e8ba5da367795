"""Endpoint URLs and family-aware socket helpers.

Every component that names a server address — the server transport, the
client endpoints, the swarm engine, the benchmarks — speaks
:class:`Endpoint`, parsed from and formatted to (:meth:`Endpoint.url`)
small URLs.  A URL is the only spelling:

* ``tcp://127.0.0.1:7199`` — a TCP address (port 0 = ephemeral on bind);
* ``unix:///var/run/communix.sock`` — a filesystem UNIX-domain socket;
* ``unix://@communix`` — a Linux abstract-namespace UNIX socket (no
  filesystem entry, auto-cleaned by the kernel).

UNIX transport matters for the Fig. 2 sweep: loopback TCP pays per-packet
protocol overhead, and the stale-file handling here makes rebinding after
a crash safe (a dead socket file is removed, a live one is refused).
"""

from __future__ import annotations

import errno
import os
import socket
import stat
from dataclasses import dataclass

from repro.util.errors import CommunixError

#: Platforms without AF_UNIX (non-POSIX) still parse unix:// URLs; binding
#: or dialing one raises EndpointError there.
_AF_UNIX = getattr(socket, "AF_UNIX", None)

DEFAULT_TCP_HOST = "127.0.0.1"


class EndpointError(CommunixError):
    """An endpoint URL could not be parsed, bound, or dialed."""


@dataclass(frozen=True)
class Endpoint:
    """One parsed server address: ``tcp`` (host, port) or ``unix`` (path).

    For UNIX endpoints ``path`` keeps the user-facing spelling: a leading
    ``@`` marks the Linux abstract namespace (translated to the ``\\0``
    prefix at the socket layer by :meth:`sockaddr`).
    """

    scheme: str  # "tcp" | "unix"
    host: str = ""
    port: int = 0
    path: str = ""

    # ------------------------------------------------------------- predicates
    @property
    def is_tcp(self) -> bool:
        return self.scheme == "tcp"

    @property
    def is_unix(self) -> bool:
        return self.scheme == "unix"

    @property
    def is_abstract(self) -> bool:
        return self.is_unix and self.path.startswith("@")

    # ------------------------------------------------------------ conversions
    @property
    def family(self) -> int:
        if self.is_tcp:
            return socket.AF_INET
        if _AF_UNIX is None:  # pragma: no cover - non-POSIX
            raise EndpointError("UNIX-domain sockets unsupported on this platform")
        return _AF_UNIX

    def sockaddr(self):
        """What ``bind``/``connect`` want for this endpoint."""
        if self.is_tcp:
            return (self.host, self.port)
        if self.is_abstract:
            return "\0" + self.path[1:]
        return self.path

    def url(self) -> str:
        if self.is_tcp:
            return f"tcp://{self.host}:{self.port}"
        return f"unix://{self.path}"

    def with_port(self, port: int) -> "Endpoint":
        """The same TCP endpoint with the (kernel-chosen) bound port."""
        return Endpoint(scheme="tcp", host=self.host, port=port)

    def __str__(self) -> str:  # log-friendly
        return self.url()


def tcp_endpoint(host: str = DEFAULT_TCP_HOST, port: int = 0) -> Endpoint:
    return Endpoint(scheme="tcp", host=host, port=port)


def unix_endpoint(path: str) -> Endpoint:
    return Endpoint(scheme="unix", path=path)


# ---------------------------------------------------------------- parsing
def _parse_host_port(text: str, context: str) -> Endpoint:
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise EndpointError(
            f"{context}: want HOST:PORT, got {text!r}"
        )
    # int() alone would accept "7_0" and unicode digits; be strict.
    if not (port_text.isascii() and port_text.isdigit()):
        raise EndpointError(
            f"{context}: port must be an integer, got {port_text!r}"
        )
    port = int(port_text, 10)
    if not 0 <= port <= 65535:
        raise EndpointError(f"{context}: port {port} out of range 0..65535")
    return Endpoint(scheme="tcp", host=host, port=port)


def parse_endpoint(spec) -> Endpoint:
    """Parse a ``tcp://`` / ``unix://`` URL into an Endpoint (an
    :class:`Endpoint` passes through unchanged)."""
    if isinstance(spec, Endpoint):
        return spec
    if not isinstance(spec, str):
        raise EndpointError(
            f"cannot parse endpoint from {spec!r} "
            "(want a tcp://HOST:PORT or unix:// URL)"
        )
    text = spec.strip()
    if not text:
        raise EndpointError("empty endpoint")
    if text.startswith("tcp://"):
        return _parse_host_port(text[len("tcp://"):], f"bad endpoint {spec!r}")
    if text.startswith("unix://"):
        path = text[len("unix://"):]
        if not path.startswith(("/", "@")):
            raise EndpointError(
                f"bad endpoint {spec!r}: unix path must be absolute "
                "(unix:///path) or abstract (unix://@name)"
            )
        if path in ("/", "@"):
            raise EndpointError(f"bad endpoint {spec!r}: empty unix path")
        return Endpoint(scheme="unix", path=path)
    raise EndpointError(
        f"bad endpoint {spec!r}: want tcp://HOST:PORT, unix:///PATH "
        "or unix://@NAME"
    )


# ---------------------------------------------------------------- binding
def _remove_stale_socket_file(path: str) -> None:
    """Unlink ``path`` if it is a socket nobody answers on.

    A previous server that died without cleanup leaves its socket file
    behind; binding would fail EADDRINUSE forever.  Probe it: connection
    refused means no listener owns it — safe to remove.  A live listener
    (or a non-socket file) is left alone and the bind fails loudly.
    """
    try:
        mode = os.stat(path).st_mode
    except OSError:
        return  # nothing there (or unreadable: let bind() report it)
    if not stat.S_ISSOCK(mode):
        raise EndpointError(
            f"refusing to bind unix://{path}: existing file is not a socket"
        )
    probe = socket.socket(_AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(0.25)
        probe.connect(path)
    except OSError as exc:
        if exc.errno in (errno.ECONNREFUSED, errno.ENOENT):
            try:
                os.unlink(path)
            except OSError:
                pass
            return
        # Timeout or other failure: assume live/unknown, let bind decide.
    else:
        raise EndpointError(
            f"refusing to bind unix://{path}: another server is listening"
        )
    finally:
        probe.close()


def listen(endpoint, backlog: int = 512) -> tuple[socket.socket, Endpoint]:
    """A non-blocking listener on ``endpoint``.

    Returns ``(socket, bound_endpoint)`` where the bound endpoint carries
    the kernel-assigned port for ``tcp://host:0``.  UNIX endpoints get the
    stale-socket-file treatment described above.
    """
    endpoint = parse_endpoint(endpoint)
    sock = socket.socket(endpoint.family, socket.SOCK_STREAM)
    try:
        if endpoint.is_tcp:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        elif not endpoint.is_abstract:
            _remove_stale_socket_file(endpoint.path)
        try:
            sock.bind(endpoint.sockaddr())
        except OSError as exc:
            raise EndpointError(f"cannot bind {endpoint}: {exc}") from exc
        sock.listen(backlog)
        sock.setblocking(False)
    except Exception:
        sock.close()
        raise
    if endpoint.is_tcp:
        endpoint = endpoint.with_port(sock.getsockname()[1])
    return sock, endpoint


def cleanup_listener(endpoint: Endpoint) -> None:
    """Remove the filesystem artifact a listener leaves behind (the UNIX
    socket file); TCP and abstract endpoints have none."""
    if endpoint.is_unix and not endpoint.is_abstract:
        try:
            os.unlink(endpoint.path)
        except OSError:
            pass


# ---------------------------------------------------------------- dialing
def create_dial_socket(endpoint: Endpoint) -> socket.socket:
    """A fresh non-blocking socket of the endpoint's family, ready for
    ``connect_ex(endpoint.sockaddr())`` (the swarm engine's dial path)."""
    sock = socket.socket(endpoint.family, socket.SOCK_STREAM)
    sock.setblocking(False)
    return sock


def dial(endpoint, timeout: float | None = 5.0) -> socket.socket:
    """A connected *blocking* socket to ``endpoint`` (client-side helper)."""
    endpoint = parse_endpoint(endpoint)
    if endpoint.is_tcp:
        return socket.create_connection(
            (endpoint.host, endpoint.port), timeout=timeout
        )
    sock = socket.socket(endpoint.family, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.connect(endpoint.sockaddr())
    except Exception:
        sock.close()
        raise
    return sock
