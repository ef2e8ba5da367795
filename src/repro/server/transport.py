"""Event-driven transport for the Communix server (TCP and UNIX).

One ``selectors``-based event-loop thread owns every socket: it accepts,
reads, frames, and writes without ever blocking, so the server sustains
thousands of simultaneous persistent connections without spawning one
thread per connection (the paper's Fig. 2/Fig. 3 regime).  Request
*processing* — token decryption, validation, database access — runs on a
small worker pool so a slow ADD never stalls the loop; completed responses
are handed back to the loop over a self-pipe.

Per-connection guarantees:

* requests on one connection are answered in order (one in flight at a
  time; further pipelined frames queue on the connection);
* a connection idle longer than ``idle_timeout`` is closed;
* writes are buffered with a high/low watermark — a connection that cannot
  drain its responses stops being read until it catches up.

``stop()`` drains gracefully: in-flight requests finish, their responses
are flushed (bounded by ``drain_timeout``), the server's signature store
(when configured) is fsynced so every acked ADD is durable, then every
registered connection, the listeners, the wakeup pipe, and the selector
are closed — no leaked file descriptors, and UNIX socket files are
unlinked.

The syscall layer is batched (see ``benchmarks/bench_hotpath.py``):

* reads go through ``recv_into`` on a :class:`~repro.net.BufferPool`
  buffer — zero allocation per read event — and complete frames are
  parsed straight out of the pooled buffer, touching ``conn.inbuf`` only
  for the partial-frame remainder;
* responses completing in the same loop iteration are coalesced: each
  writable connection gets **one** vectored flush per iteration instead
  of one per completed request;
* workers post at most one wakeup byte per loop iteration (an armed
  flag), instead of one ``send`` per completion.

The transport is also the home of the server's observability plane (see
:mod:`repro.obs` and ``docs/architecture.md`` §9): when metrics are on it
stamps every request through per-stage histograms (queue wait, handler,
response flush — validate/crypto/db/WAL stages are stamped deeper in the
stack), probes its own loop health (select wait vs. work time per
iteration, worker queue depth, backpressure pauses, buffer-pool
occupancy), logs any request slower than ``--slow-request-ms`` with a
stage breakdown, and serves a plaintext-HTTP admin plane (``GET
/metrics`` in Prometheus text format, ``/stats`` as STATS-v2 JSON,
``/healthz``) on dedicated ``admin_endpoints`` from this same event loop.

Addressing goes through :mod:`repro.net`: the transport listens on one or
more endpoints (``tcp://host:port`` and/or ``unix:///path``)
simultaneously, so TCP clients and local UNIX-socket clients share one
server, one database, one event loop.  When the process runs out of file
descriptors (the Fig. 2 sweep drives it to the container's 20k-FD hard
cap), ``accept`` backs off briefly instead of spinning — pending
connections ride the listen backlog until capacity frees.
"""

from __future__ import annotations

import collections
import errno
import os
import selectors
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor

try:
    import resource
except ImportError:  # pragma: no cover - non-Unix
    resource = None

from time import perf_counter

from repro.net import (
    BufferPool,
    Endpoint,
    cleanup_listener,
    parse_endpoint,
    tcp_endpoint,
)
from repro.net import listen as net_listen

from repro.obs import (
    STAGE_FLUSH,
    STAGE_HANDLER,
    STAGE_QUEUE_WAIT,
    RequestTrace,
    render_prometheus,
)
from repro.server.protocol import (
    MAX_FRAME,
    decode_add_signature,
    decode_get_args,
    decode_request,
    decode_stats_version,
    get_page_response_parts,
)
from repro.server.server import CommunixServer
from repro.util.encoding import canonical_json
from repro.util.errors import ProtocolError
from repro.util.logging import get_logger

log = get_logger("server.transport")

_RECV_CHUNK = 256 * 1024
_SEND_CHUNK = 1024 * 1024
#: Stop reading a connection whose unsent responses exceed this...
_HIGH_WATERMARK = 8 * 1024 * 1024
#: ...and resume once they drain below this.
_LOW_WATERMARK = 1 * 1024 * 1024
#: Stop reading a connection with this many parsed-but-unserved requests
#: queued (one is in flight at a time); the thread-per-connection model
#: had this flow control for free — one frame read per frame served.
_MAX_PENDING = 32

_LISTENER = "listener"
_WAKEUP = "wakeup"
#: Largest HTTP request head the admin plane will buffer before dropping
#: the connection (scrapers send a one-line GET; anything bigger is abuse).
_ADMIN_MAX_REQUEST = 8 * 1024
#: How long accept stays paused after EMFILE/ENFILE before retrying.
_ACCEPT_COOLDOWN = 0.2
_FD_EXHAUSTED = {errno.EMFILE, errno.ENFILE}
#: Event-loop health tick: the loop schedules a timer every tick and
#: records how late it actually fires (``loop.timer_drift``) — scheduled
#: vs. actual drift is the classic event-loop stall detector.
_HEALTH_TICK_S = 0.25
#: A tick later than this counts as a stall (``loop.stalls``).
_STALL_THRESHOLD_S = 0.1


_HTTP_STATUS = {200: "OK", 404: "Not Found", 405: "Method Not Allowed",
                500: "Internal Server Error"}

#: Precomposed shed response (frame header + body): a flooding endpoint's
#: frames are answered with this straight from the event loop — no JSON
#: parse, no worker dispatch, no crypto.
_SHED_BODY = canonical_json(
    {"ok": False, "verdict": "shed",
     "error": "admission guard: source endpoint is flooding"}
)
_SHED_PARTS = (struct.pack(">I", len(_SHED_BODY)), _SHED_BODY)


def _http_response(status: int, body: bytes, content_type: str) -> bytes:
    """A complete HTTP/1.0 response (the admin plane closes after each
    response, so no keep-alive bookkeeping is needed)."""
    head = (
        f"HTTP/1.0 {status} {_HTTP_STATUS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


class _OutputQueue:
    """Pending response bytes as a queue of buffer views.

    Responses are enqueued as *parts* (frame header, response header,
    cached segment chunks) and written with vectored I/O — a cache-hit GET
    of a large database is never copied into one contiguous buffer.
    """

    __slots__ = ("parts", "size", "pushed", "written", "marks")

    #: sendmsg is capped at IOV_MAX buffers per call; stay well under it.
    MAX_VECTORS = 64

    def __init__(self) -> None:
        self.parts: collections.deque[memoryview] = collections.deque()
        self.size = 0
        #: Monotonic byte counters for flush-latency marks: ``pushed``
        #: counts every byte ever enqueued, ``written`` every byte ever
        #: sent; a mark placed at ``pushed`` completes once ``written``
        #: catches up to it.
        self.pushed = 0
        self.written = 0
        self.marks: collections.deque[
            tuple[int, float, str | None]
        ] = collections.deque()

    def push(self, buffers) -> None:
        for buffer in buffers:
            if buffer:
                self.parts.append(memoryview(buffer))
                self.size += len(buffer)
                self.pushed += len(buffer)

    def mark(self, timestamp: float, exemplar: str | None = None) -> None:
        """Mark the current enqueue position (a response boundary) so the
        flush stage can measure enqueue -> last-byte-written.  ``exemplar``
        is the request's trace id, carried through so the flush histogram
        can attribute its buckets."""
        self.marks.append((self.pushed, timestamp, exemplar))

    def take_flushed(self) -> list[tuple[float, str | None]]:
        """Pop the ``(start timestamp, exemplar)`` of every mark the
        writes so far have fully covered."""
        done = []
        marks = self.marks
        written = self.written
        while marks and marks[0][0] <= written:
            _, timestamp, exemplar = marks.popleft()
            done.append((timestamp, exemplar))
        return done

    def head(self) -> list[memoryview]:
        parts = self.parts
        return [parts[i] for i in range(min(len(parts), self.MAX_VECTORS))]

    def advance(self, n: int) -> None:
        self.size -= n
        self.written += n
        parts = self.parts
        while n:
            head = parts[0]
            if n >= len(head):
                n -= len(head)
                parts.popleft()
            else:
                parts[0] = head[n:]
                n = 0

    def clear(self) -> None:
        self.parts.clear()
        self.size = 0
        self.marks.clear()


class _Connection:
    """Loop-thread-owned state for one client socket.

    Only the event loop mutates a connection; workers see just the payload
    bytes and post results back through the completion queue.
    """

    __slots__ = ("sock", "fd", "peer", "endpoint_key", "inbuf", "out",
                 "pending", "busy", "paused", "events", "last_activity",
                 "admin", "close_after_flush")

    def __init__(self, sock: socket.socket, peer, now: float,
                 admin: bool = False, endpoint_key: str | None = None):
        self.sock = sock
        self.fd = sock.fileno()
        self.peer = peer
        #: Guard key for the remote socket endpoint (None when the guard
        #: is off): ``host:port`` for TCP, a per-connection id for UNIX
        #: peers (which have no address to speak of).
        self.endpoint_key = endpoint_key
        self.inbuf = bytearray()
        self.out = _OutputQueue()
        #: Parsed request payloads awaiting dispatch, each with the
        #: perf_counter() of the loop iteration that parsed it (0.0 when
        #: metrics are off) — the queue-wait stage's start mark.
        self.pending: collections.deque[tuple[bytes, float]] = (
            collections.deque()
        )
        self.busy = False  # one request in flight on the worker pool
        self.paused = False  # read interest dropped (backpressure)
        self.events = selectors.EVENT_READ
        self.last_activity = now
        self.admin = admin  # HTTP metrics plane, not the framed protocol
        self.close_after_flush = False  # admin responses close when drained


class ServerTransport:
    def __init__(self, server: CommunixServer, endpoints=None,
                 accept_backlog: int = 512, workers: int = 8,
                 idle_timeout: float = 60.0, drain_timeout: float = 2.0,
                 admin_endpoints=None, slow_request_ms: float | None = None,
                 listen_sockets=None, reuse_port: bool = False,
                 cleanup_listeners: bool = True):
        """``endpoints`` is a list of endpoint URLs / :class:`Endpoint`
        objects to listen on simultaneously; when omitted (and no
        ``listen_sockets`` are given) the transport binds one ephemeral
        ``tcp://127.0.0.1:0`` endpoint — read :attr:`bound_endpoints`
        after ``start()`` for the resolved port.
        ``admin_endpoints`` are served as a plaintext-HTTP observability
        plane (``GET /metrics`` Prometheus text, ``/stats`` JSON,
        ``/healthz``) from the same event loop.  ``slow_request_ms``
        overrides ``server.config.slow_request_ms``.

        The federated tier's knobs: ``listen_sockets`` is a list of
        ``(socket, Endpoint)`` pairs *already bound and listening*
        (listening FDs the coordinator passed over ``SCM_RIGHTS``), served
        alongside anything in ``endpoints``.  ``reuse_port`` binds TCP
        endpoints with ``SO_REUSEPORT`` so sibling worker processes can
        share them.  ``cleanup_listeners=False`` leaves UNIX socket files
        alone at shutdown — they belong to the coordinator, and a worker
        (least of all a crashing one) must never unlink a path its
        siblings still serve."""
        self._server = server
        if not endpoints and not listen_sockets:
            endpoints = [tcp_endpoint()]
        self._endpoints = [parse_endpoint(ep) for ep in endpoints or []]
        self._listen_sockets = list(listen_sockets or [])
        self._reuse_port = reuse_port
        self._cleanup_listeners = cleanup_listeners
        self._admin_endpoints = [parse_endpoint(ep)
                                 for ep in (admin_endpoints or [])]
        if slow_request_ms is None:
            slow_request_ms = getattr(server.config, "slow_request_ms", 0.0)
        self._slow_threshold = max(0.0, slow_request_ms) / 1000.0
        self._backlog = accept_backlog
        self._workers = max(1, workers)
        self._idle_timeout = idle_timeout
        self._drain_timeout = drain_timeout
        self._listeners: dict[int, tuple[socket.socket, Endpoint]] = {}
        self._admin_fds: set[int] = set()
        self._bound: list[Endpoint] = []
        self._bound_admin: list[Endpoint] = []
        self._selector: selectors.BaseSelector | None = None
        self._loop_thread: threading.Thread | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._wakeup_recv: socket.socket | None = None
        self._wakeup_send: socket.socket | None = None
        self._stop = threading.Event()
        self._conns: dict[int, _Connection] = {}
        self._completions: collections.deque[
            tuple[_Connection, list[bytes], str | None]
        ] = collections.deque()
        self._last_sweep = 0.0
        self._accept_paused_until = 0.0
        #: recv_into targets; the loop thread borrows per read event, so
        #: the pool's steady state is a single buffer.
        self._recv_pool = BufferPool(_RECV_CHUNK)
        #: Wakeup batching: workers send one byte per *loop iteration*,
        #: not per completion.  True = a wakeup byte is already in flight.
        self._wakeup_armed = False
        # Observability: instruments pre-resolved off the server's
        # registry; _obs_on gates every perf_counter() read so the
        # --no-metrics server pays nothing.
        metrics = server.metrics
        self._metrics = metrics
        self._obs_on = metrics.enabled
        self._slow_log_on = self._slow_threshold > 0.0
        self._h_queue_wait = metrics.histogram(f"stage.{STAGE_QUEUE_WAIT}")
        self._h_handler = metrics.histogram(f"stage.{STAGE_HANDLER}")
        self._h_flush = metrics.histogram(f"stage.{STAGE_FLUSH}")
        #: loop.select_wait: time the loop sat in select() per iteration.
        self._h_select_wait = metrics.histogram("loop.select_wait")
        #: loop.lag: time spent *outside* select() per iteration — how
        #: long a newly-ready event can wait for the loop's attention.
        self._h_loop_lag = metrics.histogram("loop.lag")
        #: loop.timer_drift: how late the loop's scheduled health tick
        #: actually fired — the cross-check on loop.lag that catches
        #: stalls even when no socket event wakes the loop.
        self._h_timer_drift = metrics.histogram("loop.timer_drift")
        self._c_stalls = metrics.counter("loop.stalls")
        self._c_iterations = metrics.counter("loop.iterations")
        #: workers.queue_time: most recent queue-wait observed by any
        #: worker — a cheap "is the pool backed up right now" gauge next
        #: to the full stage.queue_wait histogram.
        self._g_queue_time = metrics.gauge("workers.queue_time")
        #: The server's ring of slowest completed traces (``/traces``).
        self._traces = getattr(server, "traces", None)
        self._c_accepts = metrics.counter("net.accepts")
        self._c_slow = metrics.counter("net.slow_requests")
        self._c_pauses = metrics.counter("net.backpressure_pauses")
        self._c_admin = metrics.counter("net.admin_requests")
        # Admission guard (repro.guard): the loop-level endpoint check.
        # _guard is read on every _pump when present, so resolve it once.
        self._guard = getattr(server, "guard", None)
        self._tarpit_s = (self._guard.config.tarpit_s
                          if self._guard is not None else 0.0)
        #: (due, conn, response parts) FIFO of tarpitted shed responses;
        #: due times are monotone (constant delay), and a tarpitted
        #: connection is held busy so per-connection response order is
        #: preserved — the tarpit is a worker that takes tarpit_s.
        self._tarpit: collections.deque[
            tuple[float, _Connection, tuple]
        ] = collections.deque()
        self._accept_seq = 0  # distinguishes UNIX peers (fd values recycle)
        self._c_loop_shed = metrics.counter("net.guard_loop_shed")

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Bind every endpoint and start the loop; the resolved addresses
        are in :attr:`bound_endpoints`."""
        bound: list[tuple[socket.socket, Endpoint]] = []
        admin_bound: list[tuple[socket.socket, Endpoint]] = []
        # Pre-bound listeners (federation: FDs the coordinator passed us)
        # go first so they stay the primary address.
        for sock, endpoint in self._listen_sockets:
            sock.setblocking(False)
            bound.append((sock, parse_endpoint(endpoint)))
        try:
            for endpoint in self._endpoints:
                bound.append(net_listen(endpoint, backlog=self._backlog,
                                        reuse_port=self._reuse_port))
            for endpoint in self._admin_endpoints:
                admin_bound.append(net_listen(endpoint, backlog=16))
        except Exception:
            for sock, endpoint in bound + admin_bound:
                sock.close()
                if self._cleanup_listeners:
                    cleanup_listener(endpoint)
            raise
        # Admin listeners live in the same table (every cleanup path —
        # pause, drain, force-close — already walks it); _admin_fds is
        # what routes their accepted connections to the HTTP handler.
        self._listeners = {sock.fileno(): (sock, ep)
                           for sock, ep in bound + admin_bound}
        self._admin_fds = {sock.fileno() for sock, _ in admin_bound}
        self._bound = [ep for _, ep in bound]
        self._bound_admin = [ep for _, ep in admin_bound]

        self._wakeup_recv, self._wakeup_send = socket.socketpair()
        self._wakeup_recv.setblocking(False)
        self._wakeup_send.setblocking(False)

        selector = selectors.DefaultSelector()
        for sock, _ in self._listeners.values():
            selector.register(sock, selectors.EVENT_READ, _LISTENER)
        selector.register(self._wakeup_recv, selectors.EVENT_READ, _WAKEUP)
        self._selector = selector

        self._executor = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="communix-worker"
        )
        self._register_gauges()
        self._stop.clear()
        self._accept_paused_until = 0.0
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="communix-server-loop", daemon=True
        )
        self._loop_thread.start()
        log.info("server listening on %s (event loop, %d workers)",
                 ", ".join(ep.url() for ep in self._bound), self._workers)

    def stop(self) -> None:
        """Drain in-flight requests, close every connection and FD."""
        if self._loop_thread is None:
            return
        self._stop.set()
        self._wake()
        self._loop_thread.join(timeout=self._drain_timeout + 5.0)
        if self._loop_thread.is_alive():  # pragma: no cover - last resort
            log.error("event loop failed to exit; forcing FD cleanup")
            self._force_close_all()
        self._loop_thread = None
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._listeners = {}
        self._admin_fds = set()
        self._selector = None
        self._wakeup_recv = None
        self._wakeup_send = None

    def _register_gauges(self) -> None:
        """Event-loop health probes, read lazily at snapshot/scrape time
        (never on the hot path).  The queue-depth probe reaches into the
        executor's private work queue — guarded, since it is a CPython
        implementation detail."""
        metrics = self._metrics
        metrics.register_gauge("net.connections",
                               lambda: len(self._conns))
        metrics.register_gauge(
            "net.paused_connections",
            lambda: sum(1 for c in self._conns.values() if c.paused),
        )
        metrics.register_gauge("net.completions_pending",
                               lambda: len(self._completions))
        metrics.register_gauge(
            "net.output_backlog_bytes",
            lambda: sum(c.out.size for c in self._conns.values()),
        )
        metrics.register_gauge("workers.queue_depth", self._worker_queue_depth)
        metrics.register_gauge("bufpool.allocated",
                               lambda: self._recv_pool.allocated)
        metrics.register_gauge("bufpool.free",
                               lambda: self._recv_pool.free_count)
        # FD budget: open count vs. the soft RLIMIT_NOFILE cap the accept
        # backoff fights against.  /proc is Linux-only; a raising callable
        # is skipped by snapshot(), so these degrade to absent elsewhere.
        metrics.register_gauge("proc.fd_open",
                               lambda: len(os.listdir("/proc/self/fd")))
        if resource is not None:
            metrics.register_gauge(
                "proc.fd_limit",
                lambda: resource.getrlimit(resource.RLIMIT_NOFILE)[0],
            )

    def _worker_queue_depth(self) -> int:
        executor = self._executor
        queue = getattr(executor, "_work_queue", None) if executor else None
        return queue.qsize() if queue is not None else 0

    @property
    def bound_endpoints(self) -> list[Endpoint]:
        """Every endpoint this transport is listening on (bound ports
        resolved); empty before ``start()``."""
        return list(self._bound)

    @property
    def bound_admin_endpoints(self) -> list[Endpoint]:
        """Admin-plane endpoints (bound ports resolved); empty when no
        ``admin_endpoints`` were configured or before ``start()``."""
        return list(self._bound_admin)

    @property
    def connection_count(self) -> int:
        """Registered client connections (0 after a clean ``stop()``)."""
        return len(self._conns)

    def open_fds(self) -> list[int]:
        """File descriptors this transport currently holds open — the FD
        leak regression check; empty after a clean ``stop()``."""
        fds = []
        for sock, _ in self._listeners.values():
            if sock.fileno() >= 0:
                fds.append(sock.fileno())
        for sock in (self._wakeup_recv, self._wakeup_send):
            if sock is not None and sock.fileno() >= 0:
                fds.append(sock.fileno())
        fds.extend(conn.fd for conn in self._conns.values()
                   if conn.sock.fileno() >= 0)
        return fds

    def _wake(self) -> None:
        # One byte per loop iteration: once a wakeup is in flight, further
        # completions ride it instead of each paying a send() syscall.
        # The flag is racy by design — the worst interleaving sends one
        # redundant byte, and the loop drains the completion deque on
        # every iteration regardless.
        if self._wakeup_armed:
            return
        send = self._wakeup_send
        if send is None:
            return
        self._wakeup_armed = True
        try:
            send.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # pipe full (wakeup already pending) or already closed

    # ---------------------------------------------------------------- loop
    def _run_loop(self) -> None:
        selector = self._selector
        obs_on = self._obs_on
        # Health tick: schedule a timer every _HEALTH_TICK_S and measure
        # how late it fires.  Unlike loop.lag (work time per iteration),
        # the drift survives iterations that block in a slow handler or a
        # long write — the scheduled-vs-actual gap IS the stall.
        next_tick = (time.monotonic() + _HEALTH_TICK_S) if obs_on else 0.0
        try:
            while not self._stop.is_set():
                timeout = 0.2
                if self._accept_paused_until:
                    timeout = min(timeout, _ACCEPT_COOLDOWN)
                if self._tarpit:
                    timeout = max(0.0, min(
                        timeout, self._tarpit[0][0] - time.monotonic()
                    ))
                if obs_on:
                    timeout = max(0.0, min(
                        timeout, next_tick - time.monotonic()
                    ))
                before_select = perf_counter() if obs_on else 0.0
                events = selector.select(timeout=timeout)
                work_started = perf_counter() if obs_on else 0.0
                if obs_on:
                    now = time.monotonic()
                    if now >= next_tick:
                        drift = now - next_tick
                        self._h_timer_drift.record(drift)
                        if drift > _STALL_THRESHOLD_S:
                            self._c_stalls.add()
                        # Re-anchor on now: a long stall is one stall,
                        # not a burst of catch-up ticks.
                        next_tick = now + _HEALTH_TICK_S
                for key, mask in events:
                    if key.data is _LISTENER:
                        self._on_accept(key.fileobj)
                    elif key.data is _WAKEUP:
                        self._drain_wakeup()
                    else:
                        conn: _Connection = key.data
                        if mask & selectors.EVENT_WRITE:
                            self._flush(conn)
                        if (mask & selectors.EVENT_READ
                                and self._conns.get(conn.fd) is conn):
                            self._on_readable(conn)
                self._maybe_resume_accept()
                self._drain_completions()
                self._drain_tarpit()
                self._sweep_idle()
                if obs_on:
                    self._h_select_wait.record(work_started - before_select)
                    self._h_loop_lag.record(perf_counter() - work_started)
                    self._c_iterations.add()
            self._drain_on_stop()
        except Exception:  # pragma: no cover - loop must never die silently
            log.exception("event loop crashed")
        finally:
            self._force_close_all()

    # -------------------------------------------------------------- accept
    def _on_accept(self, listener: socket.socket) -> None:
        admin = listener.fileno() in self._admin_fds
        while True:
            try:
                sock, peer = listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                if exc.errno in _FD_EXHAUSTED:
                    # Out of descriptors: stop accepting for a beat instead
                    # of spinning on a permanently-readable listener.  The
                    # pending connections stay queued in the listen backlog
                    # and are accepted once connections close.
                    self._pause_accept()
                return
            sock.setblocking(False)
            endpoint_key = None
            if self._guard is not None and not admin:
                self._accept_seq += 1
                if isinstance(peer, tuple) and len(peer) >= 2:
                    endpoint_key = f"{peer[0]}:{peer[1]}"
                else:
                    endpoint_key = f"unix:{self._accept_seq}"
            conn = _Connection(sock, peer, time.monotonic(), admin=admin,
                               endpoint_key=endpoint_key)
            self._conns[conn.fd] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)
            if self._obs_on:
                self._c_accepts.add()

    def _pause_accept(self) -> None:
        if self._accept_paused_until:
            return
        log.warning("out of file descriptors (%d connections); pausing "
                    "accept for %.1fs", len(self._conns), _ACCEPT_COOLDOWN)
        for sock, _ in self._listeners.values():
            try:
                self._selector.unregister(sock)
            except (KeyError, ValueError, OSError):  # pragma: no cover
                pass
        self._accept_paused_until = time.monotonic() + _ACCEPT_COOLDOWN

    def _maybe_resume_accept(self) -> None:
        if (not self._accept_paused_until
                or time.monotonic() < self._accept_paused_until):
            return
        self._accept_paused_until = 0.0
        for sock, _ in self._listeners.values():
            try:
                self._selector.register(sock, selectors.EVENT_READ, _LISTENER)
            except (KeyError, ValueError, OSError):  # pragma: no cover
                pass

    # ---------------------------------------------------------------- read
    def _on_readable(self, conn: _Connection) -> None:
        pool = self._recv_pool
        buf = pool.acquire()
        try:
            n = conn.sock.recv_into(buf)
        except (BlockingIOError, InterruptedError):
            pool.release(buf)
            return
        except OSError:
            pool.release(buf)
            self._close_conn(conn)
            return
        if not n:
            pool.release(buf)
            self._close_conn(conn)  # peer gone; drop any queued work
            return
        conn.last_activity = time.monotonic()
        ok = self._ingest(conn, memoryview(buf)[:n])
        pool.release(buf)
        if not ok:
            return
        self._pump(conn)
        self._update_events(conn)

    def _ingest(self, conn: _Connection, view: memoryview) -> bool:
        """Absorb one read's bytes; False if the connection was closed
        for a protocol violation.

        When nothing is buffered from earlier reads — the dominant case —
        complete frames are parsed straight out of the pooled receive
        buffer and only a trailing partial frame is copied into
        ``conn.inbuf``; the request/response steady state never copies
        payload bytes twice.
        """
        if conn.admin:
            return self._ingest_admin(conn, view)
        enqueued_at = perf_counter() if self._obs_on else 0.0
        if conn.inbuf:
            conn.inbuf += view
            return self._parse_frames(conn, enqueued_at)
        offset, total = 0, len(view)
        pending = conn.pending
        while total - offset >= 4:
            (length,) = struct.unpack_from(">I", view, offset)
            if length > MAX_FRAME:
                log.warning("dropping %s: declared frame of %d bytes",
                            conn.peer, length)
                self._close_conn(conn)
                return False
            if total - offset - 4 < length:
                break
            pending.append(
                (bytes(view[offset + 4:offset + 4 + length]), enqueued_at)
            )
            offset += 4 + length
        if offset < total:
            conn.inbuf += view[offset:]
        return True

    def _parse_frames(self, conn: _Connection, enqueued_at: float = 0.0
                      ) -> bool:
        """Split complete frames off the input buffer; False if the
        connection was closed for a protocol violation."""
        buf = conn.inbuf
        while True:
            if len(buf) < 4:
                return True
            (length,) = struct.unpack_from(">I", buf)
            if length > MAX_FRAME:
                log.warning("dropping %s: declared frame of %d bytes",
                            conn.peer, length)
                self._close_conn(conn)
                return False
            if len(buf) < 4 + length:
                return True
            conn.pending.append((bytes(buf[4:4 + length]), enqueued_at))
            del buf[:4 + length]

    # ------------------------------------------------------------ dispatch
    def _pump(self, conn: _Connection) -> None:
        """Submit the connection's next queued request (one in flight)."""
        if conn.busy or not conn.pending:
            return
        if (conn.endpoint_key is not None
                and self._guard.endpoint_action(conn.endpoint_key)
                != "admit"):
            self._shed_head(conn)
            return
        conn.busy = True
        payload, enqueued_at = conn.pending.popleft()
        self._executor.submit(self._work, conn, payload, enqueued_at)

    def _shed_head(self, conn: _Connection) -> None:
        """Answer the head-of-queue request with the precomposed shed
        frame, never parsing it or touching the worker pool.  The
        response rides the tarpit queue (optionally with a delay): the
        connection is held busy until it leaves, which both preserves
        per-connection response order and throttles a closed-loop
        flooder to ~1/tarpit_s requests per second."""
        conn.pending.popleft()
        self._guard.note_rejection(conn.endpoint_key, "shed")
        if self._obs_on:
            self._c_loop_shed.add()
        conn.busy = True
        due = time.monotonic() + self._tarpit_s
        self._tarpit.append((due, conn, _SHED_PARTS))

    def _drain_tarpit(self) -> None:
        """Release tarpitted shed responses whose delay has elapsed
        (called every loop iteration; the select timeout is clamped to
        the head entry's due time)."""
        tarpit = self._tarpit
        if not tarpit:
            return
        now = time.monotonic()
        while tarpit and tarpit[0][0] <= now:
            _, conn, parts = tarpit.popleft()
            conn.busy = False
            if self._conns.get(conn.fd) is not conn:
                continue  # closed while parked
            conn.out.push(parts)
            conn.last_activity = now
            self._flush(conn)
            if self._conns.get(conn.fd) is conn:
                self._pump(conn)
                self._update_events(conn)

    def _work(self, conn: _Connection, payload: bytes,
              enqueued_at: float = 0.0) -> None:
        """Worker-pool entry: compute a response, post it to the loop.

        A response is a parts list — ``[frame header, part, ...]`` — so
        large GET payloads stay as references to the database's cached
        segment chunks all the way to the socket.
        """
        obs_on = self._obs_on
        slow_on = self._slow_log_on
        # The trace doubles as the source of histogram exemplars, so it is
        # minted whenever metrics are on (not just when the slow log is
        # armed); --no-metrics still pays zero allocations here.
        trace = RequestTrace() if (obs_on or slow_on) else None
        exemplar = trace.hex_id() if trace is not None else None
        started = perf_counter() if (obs_on or slow_on) else 0.0
        if enqueued_at and (obs_on or slow_on):
            queue_wait = started - enqueued_at
            self._h_queue_wait.record(queue_wait, exemplar)
            self._g_queue_time.set(queue_wait)
            if trace is not None:
                trace.stamp(STAGE_QUEUE_WAIT, queue_wait)
        try:
            response = self._dispatch(payload, trace, conn.endpoint_key)
        except ProtocolError as exc:
            response = canonical_json({"ok": False, "error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            log.exception("unexpected dispatch failure")
            response = canonical_json(
                {"ok": False, "error": f"internal server error: {exc}"}
            )
        if obs_on or slow_on:
            handler_time = perf_counter() - started
            self._h_handler.record(handler_time, exemplar)
            if trace is not None:
                trace.stamp(STAGE_HANDLER, handler_time)
                if self._traces is not None:
                    self._traces.note(trace)
                if slow_on and trace.total() >= self._slow_threshold:
                    self._c_slow.add()
                    log.warning(
                        "slow request op=%s trace=%s from %s: "
                        "total=%.2fms %s",
                        trace.op, exemplar, conn.peer,
                        trace.total() * 1000.0, trace.breakdown(),
                    )
        if isinstance(response, bytes):
            response = [response]
        length = sum(len(part) for part in response)
        if length > MAX_FRAME:  # mirrors the framing contract clients enforce
            response = [canonical_json(
                {"ok": False, "error": "response exceeds maximum frame size"}
            )]
            length = len(response[0])
        response.insert(0, struct.pack(">I", length))
        self._completions.append((conn, response, exemplar))
        self._wake()

    def _drain_wakeup(self) -> None:
        try:
            while self._wakeup_recv.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            pass
        # Disarm only after the drain: a byte a worker sends while the
        # flag is already clear would be swallowed by the recv above with
        # the flag left set, and every later completion would then wait
        # out the select timeout.  A completion posted while the flag is
        # still set is picked up by this iteration's _drain_completions.
        self._wakeup_armed = False

    def _drain_completions(self) -> None:
        """Move completed responses onto their connections, then flush.

        Enqueue-everything-first, flush-once-per-connection: when several
        pipelined responses for one connection complete in the same loop
        iteration, they leave in a single vectored ``sendmsg`` instead of
        paying one flush per response.
        """
        completions = self._completions
        dirty: dict[int, _Connection] = {}
        now = time.monotonic()
        obs_on = self._obs_on
        while completions:
            try:
                conn, response_parts, exemplar = completions.popleft()
            except IndexError:  # pragma: no cover - single consumer
                break
            conn.busy = False
            if self._conns.get(conn.fd) is not conn:
                continue  # connection closed while the request ran
            conn.out.push(response_parts)
            if obs_on:
                # Flush stage starts the moment the response is queued;
                # it completes when the socket write covers the mark.
                conn.out.mark(perf_counter(), exemplar)
            conn.last_activity = now
            dirty[conn.fd] = conn
        for fd, conn in dirty.items():
            if self._conns.get(fd) is not conn:
                continue  # closed by an earlier flush in this batch
            self._flush(conn)
            if self._conns.get(fd) is conn:
                self._pump(conn)
                self._update_events(conn)

    # --------------------------------------------------------------- write
    def _flush(self, conn: _Connection) -> None:
        out = conn.out
        sendmsg = getattr(conn.sock, "sendmsg", None)
        while out.size:
            try:
                if sendmsg is not None:
                    sent = sendmsg(out.head())
                else:  # pragma: no cover - platforms without sendmsg
                    sent = conn.sock.send(out.parts[0][:_SEND_CHUNK])
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close_conn(conn)
                return
            if not sent:
                break
            out.advance(sent)
            conn.last_activity = time.monotonic()
        if out.marks:
            ended = perf_counter()
            for queued_at, exemplar in out.take_flushed():
                self._h_flush.record(ended - queued_at, exemplar)
        if conn.close_after_flush and not out.size:
            self._close_conn(conn)
            return
        self._update_events(conn)

    def _update_events(self, conn: _Connection) -> None:
        if self._conns.get(conn.fd) is not conn:
            return
        backlog = conn.out.size
        queued = len(conn.pending)
        if conn.paused:
            if backlog < _LOW_WATERMARK and queued <= _MAX_PENDING // 2:
                conn.paused = False
        elif backlog > _HIGH_WATERMARK or queued > _MAX_PENDING:
            conn.paused = True
            if self._obs_on:
                self._c_pauses.add()
        mask = 0
        if not conn.paused:
            mask |= selectors.EVENT_READ
        if conn.out.size:
            mask |= selectors.EVENT_WRITE
        if mask == conn.events:
            return
        # A fully paused connection (reads paused, nothing to write) must
        # leave the selector entirely — a zero mask is not registrable.
        if mask == 0:
            self._selector.unregister(conn.sock)
        elif conn.events == 0:
            self._selector.register(conn.sock, mask, conn)
        else:
            self._selector.modify(conn.sock, mask, conn)
        conn.events = mask

    # ------------------------------------------------------------- closing
    def _close_conn(self, conn: _Connection) -> None:
        if self._conns.pop(conn.fd, None) is not conn:
            return
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        conn.pending.clear()
        conn.inbuf.clear()
        conn.out.clear()

    def _sweep_idle(self) -> None:
        if not self._idle_timeout:
            return
        now = time.monotonic()
        if now - self._last_sweep < 1.0:
            return
        self._last_sweep = now
        for conn in list(self._conns.values()):
            if conn.busy:
                continue  # a request is being processed on its behalf
            # last_activity advances on reads AND on write progress, so
            # this also reaps a peer that requested a big response and
            # then stopped reading it — the old transport's 30 s socket
            # timeout bounded that; this sweep is its replacement.
            if now - conn.last_activity > self._idle_timeout:
                log.info("closing idle connection %s", conn.peer)
                self._close_conn(conn)

    def _drain_on_stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight requests,
        flush their responses, then close everything."""
        for sock, endpoint in self._listeners.values():
            try:
                self._selector.unregister(sock)
            except (KeyError, ValueError, OSError):
                pass
            sock.close()
            if self._cleanup_listeners:
                cleanup_listener(endpoint)
        deadline = time.monotonic() + self._drain_timeout
        while time.monotonic() < deadline:
            self._drain_completions()
            self._drain_tarpit()
            live = [c for c in self._conns.values()
                    if c.busy or c.out.size]
            if not live:
                break
            for key, mask in self._selector.select(timeout=0.05):
                if key.data is _WAKEUP:
                    self._drain_wakeup()
                elif isinstance(key.data, _Connection):
                    if mask & selectors.EVENT_WRITE:
                        self._flush(key.data)
        # Every in-flight ADD has now been processed (or abandoned with its
        # connection): push the write-ahead log to disk so a stop under the
        # interval/never fsync policies loses nothing that was acked.
        try:
            self._server.flush_store()
        except Exception:  # pragma: no cover - disk failure at shutdown
            log.exception("failed to flush signature store during drain")

    def _force_close_all(self) -> None:
        self._tarpit.clear()
        for conn in list(self._conns.values()):
            self._close_conn(conn)
        for sock, endpoint in self._listeners.values():
            try:
                sock.close()
            except OSError:
                pass
            if self._cleanup_listeners:
                cleanup_listener(endpoint)
        for sock in (self._wakeup_recv, self._wakeup_send):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        if self._selector is not None:
            try:
                self._selector.close()
            except OSError:
                pass

    # ------------------------------------------------------------- dispatch
    def _dispatch(self, payload: bytes, trace=None,
                  endpoint_key: str | None = None) -> bytes | list[bytes]:
        request = decode_request(payload)
        op = request["op"]
        if trace is not None:
            trace.op = op
        if op == "ADD":
            blob = decode_add_signature(request)
            token = str(request.get("token", ""))
            outcome = self._server.process_add(blob, token, trace)
            if endpoint_key is not None and not outcome.accepted:
                # Validation feedback for the guard's endpoint dimension:
                # sustained rejections (not raw volume — closed-loop
                # benign traffic looks the same by rate) are what flag a
                # source endpoint for loop-level shedding.
                self._guard.note_rejection(endpoint_key, outcome.verdict)
            return canonical_json(
                {
                    "ok": outcome.accepted,
                    "verdict": outcome.verdict,
                    "index": outcome.index,
                }
            )
        if op == "GET":
            from_index, max_count = decode_get_args(request)
            next_index, count, chunks, more = self._server.process_get_wire(
                from_index, max_count, trace=trace
            )
            return get_page_response_parts(next_index, count, chunks, more)
        if op == "ISSUE_ID":
            return canonical_json({"ok": True, "token": self._server.issue_user_token()})
        if op == "STATS":
            version = decode_stats_version(request)
            return canonical_json(self._server.stats_payload(version))
        raise ProtocolError(f"unknown op {op!r}")

    # ---------------------------------------------------------- admin plane
    def _ingest_admin(self, conn: _Connection, view: memoryview) -> bool:
        """Absorb bytes from an admin-plane connection and answer complete
        HTTP requests.  Runs on the loop thread: rendering a snapshot is
        O(instruments), and scrapes arrive once per interval, not per
        request — not worth a worker-pool round trip."""
        conn.inbuf += view
        if len(conn.inbuf) > _ADMIN_MAX_REQUEST:
            log.warning("dropping admin connection %s: oversized request",
                        conn.peer)
            self._close_conn(conn)
            return False
        head_end = conn.inbuf.find(b"\r\n\r\n")
        if head_end < 0:
            return True
        request_line = bytes(conn.inbuf[:head_end]).split(b"\r\n", 1)[0]
        del conn.inbuf[:]
        try:
            response = self._admin_response(request_line)
        except Exception:  # pragma: no cover - defensive
            log.exception("admin request failed")
            response = _http_response(500, b"internal error\n",
                                      "text/plain; charset=utf-8")
        if self._obs_on:
            self._c_admin.add()
        conn.out.push([response])
        conn.close_after_flush = True
        self._flush(conn)
        return self._conns.get(conn.fd) is conn

    def _admin_response(self, request_line: bytes) -> bytes:
        parts = request_line.split()
        if len(parts) < 2 or parts[0] != b"GET":
            return _http_response(405, b"only GET is supported\n",
                                  "text/plain; charset=utf-8")
        target = parts[1].split(b"?", 1)
        path = target[0]
        query = target[1] if len(target) > 1 else b""
        if path == b"/metrics":
            body = render_prometheus(self._metrics.snapshot()).encode("utf-8")
            return _http_response(
                200, body, "text/plain; version=0.0.4; charset=utf-8"
            )
        if path == b"/stats":
            body = canonical_json(self._server.stats_payload(version=2))
            return _http_response(200, body + b"\n", "application/json")
        if path == b"/traces":
            return self._traces_response(query)
        if path in (b"/healthz", b"/"):
            return _http_response(200, b"ok\n",
                                  "text/plain; charset=utf-8")
        return _http_response(404, b"not found\n",
                              "text/plain; charset=utf-8")

    def _traces_response(self, query: bytes) -> bytes:
        """``GET /traces``: the retained slowest traces (slowest first)
        plus the per-histogram bucket exemplars, so "show me the trace
        behind the p99 bucket" is one scrape.  ``?id=<hex>`` looks up one
        retained trace (404 when it has been evicted)."""
        buffer = self._traces
        wanted = None
        for param in query.split(b"&"):
            if param.startswith(b"id="):
                wanted = param[3:].decode("ascii", "replace")
        if wanted is not None:
            found = buffer.find(wanted) if buffer is not None else None
            if found is None:
                return _http_response(404, b"trace not found\n",
                                      "text/plain; charset=utf-8")
            return _http_response(200, canonical_json({"trace": found}) + b"\n",
                                  "application/json")
        exemplars: dict[str, dict] = {}
        for name, wire in self._metrics.snapshot()["histograms"].items():
            if wire.get("exemplars"):
                exemplars[name] = wire["exemplars"]
        payload = {
            "traces": buffer.snapshot() if buffer is not None else [],
            "exemplars": exemplars,
        }
        return _http_response(200, canonical_json(payload) + b"\n",
                              "application/json")
