"""The swarm engine: thousands of simulated clients on a few threads.

Mirrors the server transport's event-loop design on the *client* side:
each of a handful of **shard** threads owns a ``selectors`` selector and a
slice of the simulated clients, multiplexing their non-blocking sockets —
connect, frame, send, receive — so a 10,000-client sweep costs a few OS
threads instead of 10,000 (the thread-per-connection ceiling the Fig. 2/3
benchmarks used to hit at ~1,000).

Each client is driven by a :class:`~repro.loadgen.scenarios.Scenario`
state machine; the shard translates scenario actions into socket work and
completed responses back into scenario callbacks.  Per-shard
:class:`~repro.loadgen.metrics.Metrics` record one latency sample or one
error for every request issued — never both, never neither — which is the
invariant the swarm's own tests pin.

Operational guarantees:

* **Connect pacing** — at most ``connect_burst`` dials are in flight per
  shard, so a 10k-client ramp cannot overrun the server's accept backlog.
* **Start barrier** — scenarios may :class:`~repro.loadgen.scenarios.Park`
  after setup; :meth:`SwarmEngine.release` opens the gate for all shards
  at once, giving benchmarks a connected-before-timed window.
* **Clean teardown** — :meth:`SwarmEngine.stop` joins every shard and
  closes every socket and selector; ``open_fds()`` is empty afterwards.
"""

from __future__ import annotations

import collections
import errno
import heapq
import selectors
import socket
import struct
import threading
import time

from repro.loadgen.metrics import Metrics, MetricsSnapshot
from repro.net import BufferPool, create_dial_socket, parse_endpoint
from repro.loadgen.scenarios import (
    Action,
    ClientContext,
    Park,
    Reconnect,
    Scenario,
    Send,
    Stop,
)
from repro.server.protocol import MAX_FRAME
from repro.util.errors import ProtocolError
from repro.util.logging import get_logger

log = get_logger("loadgen.engine")

_RECV_CHUNK = 64 * 1024
#: Shard tick: upper bound on how stale stop/release flags can get.
_TICK = 0.05

# Client states.
_PENDING = "pending"        # queued behind the connect throttle
_CONNECTING = "connecting"  # non-blocking connect in flight
_ACTIVE = "active"          # connected; sending, waiting, or thinking
_PARKED = "parked"          # holding at the start barrier
_DONE = "done"              # finished (stopped or failed)

_IN_PROGRESS = {errno.EINPROGRESS, errno.EWOULDBLOCK, errno.EALREADY}


class _Client:
    """One simulated Communix client (owned by exactly one shard)."""

    __slots__ = ("cid", "scenario", "ctx", "state", "sock", "fd", "events",
                 "inbuf", "outbuf", "outpos", "op", "awaiting",
                 "send_started", "pending_send", "gen")

    def __init__(self, cid: int, scenario: Scenario):
        self.cid = cid
        self.scenario = scenario
        self.ctx = ClientContext(client_id=cid)
        self.state = _PENDING
        self.sock: socket.socket | None = None
        self.fd = -1
        self.events = 0
        self.inbuf = bytearray()
        self.outbuf = b""
        self.outpos = 0
        self.op: str | None = None
        self.awaiting = False          # a request is on the wire, unanswered
        self.send_started = 0.0
        self.pending_send: Send | None = None  # think-time delayed request
        self.gen = 0                   # dial generation (stale-timer guard)


class _Shard:
    """One event-loop thread's worth of swarm clients."""

    def __init__(self, engine: "SwarmEngine", index: int):
        self.engine = engine
        self.index = index
        self.selector: selectors.BaseSelector = selectors.DefaultSelector()
        self.metrics = Metrics(epoch=engine.epoch)
        self.issued: dict[str, int] = {}
        self.clients: list[_Client] = []
        self.backlog: collections.deque[_Client] = collections.deque()
        self.connecting = 0
        self.connected = 0
        self.parked: list[_Client] = []
        self.finished = 0
        self.timers: list[tuple[float, int, _Client, str, int]] = []
        self._timer_seq = 0
        self.thread: threading.Thread | None = None
        # Mirrors the server transport's read path: recv_into on a pooled
        # buffer, so measuring the server never charges it for the
        # generator's own per-read allocations.
        self._recv_pool = BufferPool(_RECV_CHUNK)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        self.backlog.extend(self.clients)
        self.thread = threading.Thread(
            target=self._run, name=f"swarm-shard-{self.index}", daemon=True
        )
        self.thread.start()

    def _run(self) -> None:
        try:
            stop = self.engine._stop_event
            while not stop.is_set():
                self._start_connects()
                self._check_release()
                timeout = _TICK
                if self.timers:
                    timeout = min(
                        timeout, max(0.0, self.timers[0][0] - time.monotonic())
                    )
                for key, mask in self.selector.select(timeout):
                    self._dispatch(key.data, mask)
                self._fire_timers()
                if self.finished >= len(self.clients):
                    if stop.is_set():
                        break
                    self.engine._idle_wait(_TICK)
        except Exception:  # pragma: no cover - shard must never die silently
            log.exception("swarm shard %d crashed", self.index)
            self.engine._note_shard_crash()
        finally:
            self._close_all()

    def _close_all(self) -> None:
        for client in self.clients:
            if client.sock is not None:
                self._unregister(client)
                try:
                    client.sock.close()
                except OSError:
                    pass
                client.sock = None
        try:
            self.selector.close()
        except OSError:
            pass

    # ------------------------------------------------------------- connects
    def _start_connects(self) -> None:
        engine = self.engine
        while self.backlog and self.connecting < engine.connect_burst:
            client = self.backlog.popleft()
            if client.state is _DONE:
                continue
            if not self._dial(client):
                # The server's listen backlog is full; every further dial
                # this tick would fail the same way.  Requeue and let the
                # next tick retry, so a saturated server sees one probe
                # per shard tick instead of a socket-churn storm.
                self.backlog.appendleft(client)
                return

    def _dial(self, client: _Client) -> bool:
        """Start a non-blocking connect; False if the server's listen
        backlog is full (UNIX EAGAIN) and the dial should be retried."""
        endpoint = self.engine.endpoint
        sock = create_dial_socket(endpoint)
        client.sock = sock
        client.fd = sock.fileno()
        client.gen += 1
        client.inbuf.clear()
        client.outbuf = b""
        client.outpos = 0
        client.awaiting = False
        rc = sock.connect_ex(endpoint.sockaddr())
        if endpoint.is_unix and rc == errno.EAGAIN:
            # UNIX connect has no asynchronous mode: EAGAIN means the
            # server's listen backlog is momentarily full.  Back off and
            # redial instead of treating it as an in-flight connect.
            self._drop_socket(client)
            return False
        if rc == 0 or rc in _IN_PROGRESS:
            client.state = _CONNECTING
            self.connecting += 1
            client.events = selectors.EVENT_WRITE
            self.selector.register(sock, selectors.EVENT_WRITE, client)
            self._schedule(client, "connect_timeout",
                           self.engine.connect_timeout, gen=client.gen)
            return True
        self._drop_socket(client)
        self._client_error(client, None, OSError(rc, "connect failed"),
                           label="connect")
        return True

    def _finish_connect(self, client: _Client) -> None:
        self.connecting -= 1
        err = client.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if err:
            self._drop_socket(client)
            self._client_error(client, None, OSError(err, "connect failed"),
                               label="connect")
            return
        client.state = _ACTIVE
        self.connected += 1
        self._set_events(client, selectors.EVENT_READ)
        self._run_hook(client, lambda: client.scenario.on_connect(client.ctx))

    # --------------------------------------------------------------- events
    def _dispatch(self, client: _Client, mask: int) -> None:
        if client.state is _DONE or client.sock is None:
            return
        if client.state is _CONNECTING:
            if mask & selectors.EVENT_WRITE:
                self._finish_connect(client)
            return
        if mask & selectors.EVENT_WRITE:
            self._flush(client)
        if client.state is not _DONE and client.sock is not None \
                and mask & selectors.EVENT_READ:
            self._read(client)

    def _read(self, client: _Client) -> None:
        pool = self._recv_pool
        buf = pool.acquire()
        try:
            n = client.sock.recv_into(buf)
        except (BlockingIOError, InterruptedError):
            pool.release(buf)
            return
        except OSError as exc:
            pool.release(buf)
            self._connection_lost(client, exc)
            return
        if not n:
            pool.release(buf)
            self._connection_lost(
                client, ProtocolError("server closed the connection")
            )
            return
        client.inbuf += memoryview(buf)[:n]
        pool.release(buf)
        while client.awaiting and client.state is not _DONE:
            payload = self._next_frame(client)
            if payload is None:
                return
            self._complete(client, payload)
        if client.inbuf and client.state not in (_DONE,):
            # Bytes with no request outstanding: protocol violation.
            self._connection_lost(
                client, ProtocolError("unsolicited bytes from server")
            )

    def _next_frame(self, client: _Client) -> bytes | None:
        buf = client.inbuf
        if len(buf) < 4:
            return None
        (length,) = struct.unpack_from(">I", buf)
        if length > MAX_FRAME:
            self._connection_lost(
                client, ProtocolError(f"oversized frame ({length} bytes)")
            )
            return None
        if len(buf) < 4 + length:
            return None
        payload = bytes(buf[4:4 + length])
        del buf[:4 + length]
        return payload

    def _complete(self, client: _Client, payload: bytes) -> None:
        now = time.monotonic()
        op = client.op
        client.awaiting = False
        client.op = None
        self.metrics.record(op, now - client.send_started, now)
        self._run_hook(
            client, lambda: client.scenario.on_response(client.ctx, op, payload)
        )

    def _flush(self, client: _Client) -> None:
        view = memoryview(client.outbuf)
        while client.outpos < len(client.outbuf):
            try:
                sent = client.sock.send(view[client.outpos:])
            except (BlockingIOError, InterruptedError):
                break
            except OSError as exc:
                self._connection_lost(client, exc)
                return
            client.outpos += sent
        if client.outpos >= len(client.outbuf):
            client.outbuf = b""
            client.outpos = 0
            self._set_events(client, selectors.EVENT_READ)
        else:
            self._set_events(
                client, selectors.EVENT_READ | selectors.EVENT_WRITE
            )

    # -------------------------------------------------------------- actions
    def _run_hook(self, client: _Client, hook) -> None:
        try:
            action = hook()
        except Exception:
            log.exception("scenario hook failed (client %d)", client.cid)
            client.scenario.failed = True
            self._finish(client)
            return
        try:
            self._apply(client, action)
        except Exception:
            # A bad action (e.g. Send returned from on_error after the
            # socket died) must fail this client alone, not the shard.
            log.exception("applying scenario action failed (client %d)",
                          client.cid)
            client.scenario.failed = True
            self._finish(client)

    def _apply(self, client: _Client, action: Action) -> None:
        if isinstance(action, Send):
            if action.delay > 0:
                client.pending_send = action
                self._schedule(client, "send", action.delay)
            else:
                self._begin_send(client, action)
        elif isinstance(action, Park):
            client.state = _PARKED
            self.parked.append(client)
            self.engine._note_barrier_progress()
            if self.engine._released.is_set():
                self._check_release()  # barrier already open: pass through
        elif isinstance(action, Reconnect):
            client.ctx.reconnects += 1
            self._hang_up(client)
            if action.delay > 0:
                self._schedule(client, "redial", action.delay)
            else:
                self.backlog.append(client)
        elif isinstance(action, Stop):
            self._finish(client)
        else:  # pragma: no cover - scenario bug
            client.scenario.failed = True
            self._finish(client)

    def _begin_send(self, client: _Client, action: Send) -> None:
        if client.sock is None or len(action.payload) > MAX_FRAME:
            # Sending needs a live connection (a scenario may only answer
            # a connection error with Reconnect or Stop).
            client.scenario.failed = True
            self._finish(client)
            return
        client.outbuf = struct.pack(">I", len(action.payload)) + action.payload
        client.outpos = 0
        client.op = action.op
        client.awaiting = True
        client.send_started = time.monotonic()
        self.issued[action.op] = self.issued.get(action.op, 0) + 1
        self._flush(client)

    # --------------------------------------------------------------- timers
    def _schedule(self, client: _Client, kind: str, delay: float,
                  gen: int = 0) -> None:
        self._timer_seq += 1
        heapq.heappush(
            self.timers,
            (time.monotonic() + delay, self._timer_seq, client, kind, gen),
        )

    def _fire_timers(self) -> None:
        now = time.monotonic()
        while self.timers and self.timers[0][0] <= now:
            _, _, client, kind, gen = heapq.heappop(self.timers)
            if client.state is _DONE:
                continue
            if kind == "send":
                pending, client.pending_send = client.pending_send, None
                if pending is not None and client.state is _ACTIVE:
                    self._begin_send(client, pending)
            elif kind == "redial":
                if client.state is _PENDING:
                    self.backlog.append(client)
            elif kind == "connect_timeout":
                # A timer from a superseded dial must not kill a fresh one.
                if client.state is _CONNECTING and client.gen == gen:
                    self.connecting -= 1
                    self._drop_socket(client)
                    self._client_error(
                        client, None,
                        OSError(errno.ETIMEDOUT, "connect timed out"),
                        label="connect",
                    )

    # -------------------------------------------------------------- barrier
    def _check_release(self) -> None:
        if not self.parked or not self.engine._released.is_set():
            return
        parked, self.parked = self.parked, []
        for client in parked:
            if client.state is _PARKED:
                client.state = _ACTIVE
                self._run_hook(
                    client, lambda c=client: c.scenario.on_release(c.ctx)
                )

    # --------------------------------------------------------------- errors
    def _connection_lost(self, client: _Client, exc: Exception) -> None:
        """The transport under a live client failed (reset, EOF, garbage)."""
        op = client.op if client.awaiting else None
        self._drop_socket(client)
        self._client_error(client, op, exc)

    def _client_error(self, client: _Client, op: str | None, exc: Exception,
                      label: str = "connection") -> None:
        # Every issued-but-unanswered request records exactly one error
        # under its own op; failures between requests count as
        # "connection" and connect failures as "connect".
        self.metrics.record_error(op if op is not None else label)
        client.awaiting = False
        client.op = None
        self._run_hook(
            client, lambda: client.scenario.on_error(client.ctx, op, exc)
        )

    # -------------------------------------------------------------- closing
    def _set_events(self, client: _Client, mask: int) -> None:
        if client.events != mask:
            self.selector.modify(client.sock, mask, client)
            client.events = mask

    def _unregister(self, client: _Client) -> None:
        try:
            self.selector.unregister(client.sock)
        except (KeyError, ValueError, OSError):
            pass
        client.events = 0

    def _drop_socket(self, client: _Client) -> None:
        if client.sock is None:
            return
        was_active = client.state in (_ACTIVE, _PARKED)
        self._unregister(client)
        try:
            client.sock.close()
        except OSError:
            pass
        client.sock = None
        client.fd = -1
        if was_active:
            self.connected -= 1
        client.state = _PENDING
        client.inbuf.clear()
        client.outbuf = b""
        client.outpos = 0
        client.awaiting = False
        client.op = None
        client.pending_send = None

    def _hang_up(self, client: _Client) -> None:
        self._drop_socket(client)

    def _finish(self, client: _Client) -> None:
        if client.state is _DONE:
            return
        self._drop_socket(client)
        client.state = _DONE
        self.finished += 1
        self.engine._note_client_done()


class SwarmEngine:
    """Owns the shards, the start barrier, and the merged metrics."""

    def __init__(self, target, *, loops: int = 2,
                 connect_burst: int = 128, connect_timeout: float = 20.0):
        """``target`` is an endpoint URL / :class:`repro.net.Endpoint`."""
        if loops < 1:
            raise ValueError("loops must be positive")
        self.endpoint = parse_endpoint(target)
        self.address = self.endpoint.sockaddr()
        self.connect_burst = max(1, connect_burst)
        self.connect_timeout = connect_timeout
        self.epoch = time.monotonic()
        self._shards = [_Shard(self, i) for i in range(loops)]
        self._scenarios: list[Scenario] = []
        self._started = False
        self._stopped = False
        self._stop_event = threading.Event()
        self._released = threading.Event()
        self._done_event = threading.Event()
        self._idle_cond = threading.Event()
        #: Notified whenever a client parks or finishes (wait_barrier).
        self._barrier_cond = threading.Condition()
        self._crashed = False
        self.completed_at: float | None = None

    # ------------------------------------------------------------ lifecycle
    def add_clients(self, scenarios) -> None:
        """Register one client per scenario instance (before ``start``)."""
        if self._started:
            raise RuntimeError("add_clients() must precede start()")
        for scenario in scenarios:
            cid = len(self._scenarios)
            self._scenarios.append(scenario)
            shard = self._shards[cid % len(self._shards)]
            shard.clients.append(_Client(cid, scenario))

    def start(self) -> None:
        if self._started:
            raise RuntimeError("engine already started")
        self._started = True
        if not self._scenarios:
            self.completed_at = time.monotonic()
            self._done_event.set()
            return
        for shard in self._shards:
            shard.start()
        log.info("swarm started: %d clients on %d loops -> %s",
                 len(self._scenarios), len(self._shards), self.endpoint)

    def release(self) -> float:
        """Open the start barrier for parked clients; returns the release
        timestamp (``time.monotonic()``) for timed-window accounting."""
        now = time.monotonic()
        self._released.set()
        return now

    def wait(self, timeout: float | None = None) -> bool:
        """Block until every client finished; False on timeout."""
        return self._done_event.wait(timeout)

    def wait_barrier(self, expected: int | None = None,
                     timeout: float = 60.0) -> int:
        """Block until ``expected`` clients (default: all of them) are
        parked at the start barrier or already finished; returns the
        number parked.  Raises :class:`TimeoutError` otherwise."""
        expected = len(self._scenarios) if expected is None else expected
        with self._barrier_cond:
            if not self._barrier_cond.wait_for(
                    lambda: self.parked_count + self.finished_count >= expected,
                    timeout):
                raise TimeoutError(f"only {self.parked_count}/{expected} "
                                   f"clients reached the barrier")
        return self.parked_count

    def stop(self) -> None:
        """Join the shards and close every remaining socket and selector."""
        if not self._started or self._stopped:
            self._stopped = True
            return
        self._stopped = True
        self._stop_event.set()
        self._released.set()  # parked clients must not block teardown
        self._idle_cond.set()
        for shard in self._shards:
            if shard.thread is not None:
                shard.thread.join(timeout=30.0)
                if shard.thread.is_alive():  # pragma: no cover - last resort
                    log.error("shard %d failed to exit", shard.index)
                    shard._close_all()

    def run(self, timeout: float | None = None) -> MetricsSnapshot:
        """``start()`` + ``wait()`` + ``stop()``; returns merged metrics."""
        self.start()
        try:
            self.wait(timeout)
        finally:
            self.stop()
        return self.snapshot()

    # ------------------------------------------------------------ telemetry
    def snapshot(self) -> MetricsSnapshot:
        return Metrics.merge(shard.metrics for shard in self._shards)

    def issued(self) -> dict[str, int]:
        """Requests issued per op label, across all shards.  Like
        ``snapshot()``, callable mid-run for live telemetry."""
        totals: dict[str, int] = {}
        for shard in self._shards:
            while True:
                try:
                    items = list(shard.issued.items())
                    break
                except RuntimeError:  # op label appeared mid-copy; retry
                    continue
            for op, n in items:
                totals[op] = totals.get(op, 0) + n
        return totals

    @property
    def client_count(self) -> int:
        return len(self._scenarios)

    @property
    def finished_count(self) -> int:
        return sum(shard.finished for shard in self._shards)

    @property
    def connected_count(self) -> int:
        return sum(shard.connected for shard in self._shards)

    @property
    def parked_count(self) -> int:
        # A parked client that subsequently died (reset, idle-reaped)
        # stays in the shard's parked list until release but is no longer
        # _PARKED — counting it would double-count against finished_count
        # and open the barrier early.
        return sum(
            sum(1 for client in shard.parked if client.state is _PARKED)
            for shard in self._shards
        )

    @property
    def scenarios(self) -> list[Scenario]:
        return list(self._scenarios)

    @property
    def crashed(self) -> bool:
        return self._crashed

    def open_fds(self) -> list[int]:
        """Sockets the swarm currently holds open (empty after ``stop``)."""
        fds = []
        for shard in self._shards:
            for client in shard.clients:
                if client.sock is not None and client.sock.fileno() >= 0:
                    fds.append(client.sock.fileno())
        return fds

    # ------------------------------------------------------- shard callbacks
    def _note_client_done(self) -> None:
        self._note_barrier_progress()
        if self.finished_count >= len(self._scenarios) \
                and not self._done_event.is_set():
            self.completed_at = time.monotonic()
            self._done_event.set()

    def _note_barrier_progress(self) -> None:
        with self._barrier_cond:
            self._barrier_cond.notify_all()

    def _idle_wait(self, timeout: float) -> None:
        self._idle_cond.wait(timeout)

    def _note_shard_crash(self) -> None:
        self._crashed = True
        self.completed_at = time.monotonic()
        self._done_event.set()  # never leave wait() hanging
