"""Single-writer log-owner protocol for the federated server tier.

Federation (see :mod:`repro.server.federation`) runs N worker processes
behind one listen endpoint, but exactly **one** process — the *log owner*,
worker 0 — may touch the write-ahead log: multi-process appends to a
shared segmented log would interleave records and tear the single-writer
invariants the store is built on.  The other workers (*replicas*) keep a
full in-memory copy of the database for GETs and forward every state
mutation to the owner over an internal ``unix://`` endpoint:

* **ADD** — the replica does the per-request work that needs no global
  state (size check, AES token decode) and forwards ``(uid, blob)``.  The
  owner runs the same ADD body a direct ADD runs, starting from that uid
  (:meth:`~repro.server.server.CommunixServer.process_forwarded_add`:
  parse, per-user quota, adjacency, dedup, the WAL + database append),
  and replies with the verdict.  The
  replica acks its client **only after** the owner's durability reply —
  an acked ADD is on disk (under ``--fsync always``) no matter which
  worker accepted the connection.
* **ISSUE_ID** — forwarded whole; uid allocation and the persisted uid
  watermark are global.
* **apply-stream** — each replica holds a subscription the owner feeds
  with every database entry in log order (backfill from the replica's
  current length, then live tail).  Replicas install entries via
  :meth:`~repro.server.database.SignatureDatabase.apply_replicated`, so a
  GET served by any worker converges on the owner's history.

Wire format: the transport's length-prefixed frames
(:func:`~repro.server.protocol.write_frame` /
:func:`~repro.server.protocol.read_frame`) over blocking sockets, one
octet of opcode first.  The channel is process-local (coordinator-spawned
workers on one machine), so there is no auth inside it — the external
trust boundary stays the public transport.
"""

from __future__ import annotations

import select
import socket
import struct
import threading
import time
from time import perf_counter

from repro.net import dial, listen as net_listen, parse_endpoint
from repro.obs import (
    STAGE_APPLY_LAG,
    STAGE_GUARD_CHECK,
    STAGE_OWNER_QUEUE,
    STAGE_REPL_FORWARD,
    STAGE_DB_APPEND,
    STAGE_VALIDATE,
    RequestTrace,
    decode_trace_stages,
    encode_trace_stages,
)
from repro.server.protocol import read_frame, write_frame
from repro.server.server import AddOutcome, CommunixServer, ServerConfig
from repro.util.errors import ProtocolError
from repro.util.logging import get_logger

log = get_logger("server.replication")

#: Replica -> owner requests.
OP_FORWARD_ADD = b"A"
OP_FORWARD_ISSUE = b"I"
OP_SUBSCRIBE = b"S"
#: Owner -> replica replies / stream records.
REPLY_ADD = b"a"
REPLY_TOKEN = b"t"
REPLY_ERROR = b"x"
STREAM_ENTRY = b"e"

#: Safety-net wait for the apply-stream publisher.  The owner *pushes* a
#: wakeup to every subscriber the instant the database publishes an entry
#: (see :meth:`SignatureDatabase.add_publish_listener`), so the stream
#: normally never sleeps this long — the timeout only bounds staleness if
#: a wakeup were ever lost, and keeps idle streams cheap (20 wakeups/s
#: instead of the 500/s the old 2 ms poll-walk burned).
PUBLISH_FALLBACK_S = 0.05

_U64 = struct.Struct(">Q")
_U16 = struct.Struct(">H")
_F64 = struct.Struct(">d")

#: Forward-ADD request: opcode, uid, the replica's trace id (0 =
#: untraced), then the signature blob to the end of the frame.
_ADD_HDR = 1 + 2 * _U64.size
#: Stream entry: opcode, entry index, sender uid, the owner's published
#: count and CLOCK_MONOTONIC timestamp at send time (system-wide on
#: Linux, so the replica can subtract it — the apply-lag instrument),
#: then the blob.
_STREAM_HDR = 1 + 3 * _U64.size + _F64.size


def _add_request(uid: int, blob: bytes, trace_id: int = 0) -> bytes:
    return OP_FORWARD_ADD + _U64.pack(uid) + _U64.pack(trace_id) + blob


def _stream_entry(index: int, uid: int, blob: bytes,
                  published: int, publish_ts: float) -> bytes:
    return (STREAM_ENTRY + _U64.pack(index) + _U64.pack(uid)
            + _U64.pack(published) + _F64.pack(publish_ts) + blob)


class ForwardError(Exception):
    """The internal endpoint failed (owner crashed / channel severed);
    the replica must fail the client request rather than guess."""


class ReplicationHub:
    """Owner-side: accept replica connections, serve forwards, publish
    the apply-stream.  Plain blocking threads — at most a handful of
    replica workers ever connect, so a thread per connection is simpler
    and no less scalable than folding this into the event loop."""

    def __init__(self, server: CommunixServer, endpoint,
                 fallback_wait: float = PUBLISH_FALLBACK_S):
        self._server = server
        self._endpoint = parse_endpoint(endpoint)
        self._fallback_wait = fallback_wait
        self._listener: socket.socket | None = None
        self.bound_endpoint = None
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._conns: list[socket.socket] = []
        self._conns_lock = threading.Lock()
        #: Per-subscriber wakeup events, set by the database's publish
        #: listener so streams tail new entries push-style.
        self._wakeups: list[threading.Event] = []
        self.forwarded_adds = 0  # owner-side visibility (not client stats)
        self.forwarded_issues = 0
        server.database.add_publish_listener(self._on_publish)
        # Owner-side replication telemetry, derived so the attributes
        # above stay the single source of truth.
        metrics = server.metrics
        metrics.register_counter("replication.forwarded_adds",
                                 lambda: self.forwarded_adds)
        metrics.register_counter("replication.forwarded_issues",
                                 lambda: self.forwarded_issues)
        metrics.register_gauge("replication.subscribers",
                               lambda: len(self._wakeups))

    def _on_publish(self) -> None:
        """Database publish hook: runs on the appender's thread, outside
        the append lock.  Event.set() is cheap and never blocks, so the
        owner's write path pays nanoseconds, not a poll interval."""
        with self._conns_lock:
            wakeups = list(self._wakeups)
        for event in wakeups:
            event.set()

    def start(self) -> None:
        sock, bound = net_listen(self._endpoint, backlog=64)
        sock.setblocking(True)
        self._listener = sock
        self.bound_endpoint = bound
        accept = threading.Thread(target=self._accept_loop,
                                  name="communix-repl-accept", daemon=True)
        accept.start()
        self._threads.append(accept)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            conn.setblocking(True)
            with self._conns_lock:
                self._conns.append(conn)
            worker = threading.Thread(target=self._serve, args=(conn,),
                                      name="communix-repl-conn", daemon=True)
            worker.start()
            self._threads.append(worker)

    def _serve(self, conn: socket.socket) -> None:
        try:
            while not self._stop.is_set():
                try:
                    frame = read_frame(conn)
                except (ProtocolError, OSError):
                    return
                if frame is None:
                    return
                op = frame[:1]
                if op == OP_FORWARD_ADD:
                    uid = _U64.unpack_from(frame, 1)[0]
                    trace_id = _U64.unpack_from(frame, 1 + _U64.size)[0]
                    # The owner stamps its stages onto the *replica's*
                    # trace id — one trace across the process boundary;
                    # the stamps ride back in the durability reply.
                    trace = (RequestTrace(op="fwd_add", trace_id=trace_id)
                             if trace_id else None)
                    outcome = self._server.process_forwarded_add(
                        frame[_ADD_HDR:], uid, trace
                    )
                    self.forwarded_adds += 1
                    if trace is not None:
                        # Owner-side /traces can resolve the id too.
                        self._server.traces.note(trace)
                    stages = (encode_trace_stages(trace.stages)
                              if trace is not None else b"\x00")
                    verdict_raw = outcome.verdict.encode("utf-8")
                    reply = (REPLY_ADD
                             + (b"\x01" if outcome.accepted else b"\x00")
                             + _U64.pack(outcome.index if outcome.index
                                         is not None else 2**64 - 1)
                             + _U16.pack(len(verdict_raw)) + verdict_raw
                             + stages)
                    write_frame(conn, reply)
                elif op == OP_FORWARD_ISSUE:
                    try:
                        token = self._server.issue_user_token()
                    except Exception:  # noqa: BLE001 - must answer the peer
                        log.exception("forwarded ISSUE_ID failed")
                        write_frame(conn, REPLY_ERROR)
                        continue
                    self.forwarded_issues += 1
                    write_frame(conn, REPLY_TOKEN + token.encode("utf-8"))
                elif op == OP_SUBSCRIBE:
                    from_index = _U64.unpack_from(frame, 1)[0]
                    self._stream(conn, from_index)
                    return  # _stream owns the connection until EOF
                else:
                    write_frame(conn, REPLY_ERROR)
        finally:
            self._drop_conn(conn)

    def _stream(self, conn: socket.socket, from_index: int) -> None:
        """Feed one replica the apply-stream from ``from_index`` on:
        everything the database already holds, then the live tail as the
        owner pushes publish wakeups.  The database is append-only and
        ``entry(i)`` is stable once published, so a plain index walk — no
        queue between appender and publisher — is race-free.  Clearing
        the wakeup *before* sampling ``len(database)`` makes the handoff
        lose-proof: a publish after the clear re-sets the event, a
        publish before it is already visible in the length."""
        database = self._server.database
        next_index = from_index
        wakeup = threading.Event()
        with self._conns_lock:
            self._wakeups.append(wakeup)
        try:
            while not self._stop.is_set():
                wakeup.clear()
                published = len(database)
                while next_index < published:
                    entry = database.entry(next_index)
                    write_frame(conn, _stream_entry(
                        entry.index, entry.sender_uid, entry.blob,
                        published, time.monotonic()
                    ))
                    next_index += 1
                if next_index >= len(database):
                    if not wakeup.wait(self._fallback_wait):
                        # Idle past the fallback: probe for peer EOF so a
                        # dead replica's stream thread (and its wakeup
                        # registration) doesn't linger until the next
                        # publish tries to write.  Subscribers never send
                        # after SUBSCRIBE, so readable means closed.
                        ready, _, _ = select.select([conn], [], [], 0)
                        if ready and not conn.recv(1, socket.MSG_PEEK):
                            return
        except OSError:
            return  # replica went away; its crash is the coordinator's job
        finally:
            with self._conns_lock:
                if wakeup in self._wakeups:
                    self._wakeups.remove(wakeup)

    def _drop_conn(self, conn: socket.socket) -> None:
        with self._conns_lock:
            if conn in self._conns:
                self._conns.remove(conn)
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass

    def stop(self) -> None:
        self._stop.set()
        with self._conns_lock:
            wakeups = list(self._wakeups)
        for event in wakeups:
            event.set()  # streams re-check _stop instead of sleeping it off
        if self._listener is not None:
            # shutdown() before close(): a close alone does not wake a
            # thread blocked inside accept() — the in-kernel syscall keeps
            # the file description (and a unix address binding) alive
            # until it returns, which would leak the accept thread and
            # hold the internal endpoint hostage for a restarted hub.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for thread in self._threads:
            thread.join(timeout=5.0)


class LogForwardClient:
    """Replica-side: forward ADD/ISSUE_ID to the owner.

    One connection **per calling thread** (the transport's worker pool
    calls this concurrently and frames must not interleave); connections
    are dialed lazily and redialed once per call after an error, so a
    briefly-unavailable owner costs one failed request, not a poisoned
    socket forever."""

    def __init__(self, endpoint, timeout: float = 30.0):
        self._endpoint = parse_endpoint(endpoint)
        self._timeout = timeout
        self._local = threading.local()
        self._all: list[socket.socket] = []
        self._all_lock = threading.Lock()
        self._closed = False

    def _conn(self) -> socket.socket:
        sock = getattr(self._local, "sock", None)
        if sock is None:
            if self._closed:
                raise ForwardError("forward client is closed")
            sock = dial(self._endpoint, timeout=self._timeout)
            self._local.sock = sock
            with self._all_lock:
                self._all.append(sock)
        return sock

    def _drop(self) -> None:
        sock = getattr(self._local, "sock", None)
        self._local.sock = None
        if sock is not None:
            with self._all_lock:
                if sock in self._all:
                    self._all.remove(sock)
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass

    def _roundtrip(self, request: bytes) -> bytes:
        try:
            sock = self._conn()
            write_frame(sock, request)
            reply = read_frame(sock)
        except (OSError, ProtocolError) as exc:
            self._drop()
            raise ForwardError(f"log owner unreachable: {exc}") from exc
        if reply is None:
            self._drop()
            raise ForwardError("log owner closed the internal connection")
        return reply

    def forward_add(self, uid: int, blob: bytes, trace_id: int = 0
                    ) -> tuple[AddOutcome, dict[str, float]]:
        """Forward one ADD; returns the owner's outcome plus the stage
        stamps the owner recorded on ``trace_id`` (empty when untraced
        or when the reply's stage section is malformed)."""
        reply = self._roundtrip(_add_request(uid, blob, trace_id))
        if reply[:1] != REPLY_ADD or len(reply) < 2 + _U64.size + _U16.size:
            self._drop()
            raise ForwardError("malformed ADD reply from log owner")
        accepted = reply[1:2] == b"\x01"
        index = _U64.unpack_from(reply, 2)[0]
        offset = 2 + _U64.size
        (verdict_len,) = _U16.unpack_from(reply, offset)
        offset += _U16.size
        verdict = reply[offset:offset + verdict_len].decode("utf-8", "replace")
        offset += verdict_len
        try:
            stages = decode_trace_stages(reply[offset:])
        except (IndexError, struct.error):
            # Telemetry must never fail the request it describes.
            stages = {}
        outcome = AddOutcome(accepted=accepted, verdict=verdict,
                             index=index if index != 2**64 - 1 else None)
        return outcome, stages

    def forward_issue(self) -> str:
        reply = self._roundtrip(OP_FORWARD_ISSUE)
        if reply[:1] != REPLY_TOKEN:
            raise ForwardError("log owner could not issue a user id")
        return reply[1:].decode("utf-8")

    def close(self) -> None:
        self._closed = True
        with self._all_lock:
            socks, self._all = list(self._all), []
        for sock in socks:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass


class ReplicaFeed(threading.Thread):
    """Replica-side apply-stream consumer: one long-lived subscription
    installing owner-published entries into the local database."""

    def __init__(self, database, endpoint, metrics=None):
        super().__init__(name="communix-replica-feed", daemon=True)
        self._database = database
        self._endpoint = parse_endpoint(endpoint)
        self._stop_event = threading.Event()
        self._sock: socket.socket | None = None
        self.applied = 0
        # Replication health: per-entry owner-publish -> local-apply
        # latency (CLOCK_MONOTONIC is system-wide, so the cross-process
        # subtraction is sound on Linux) and the entry-count lag gauge.
        if metrics is not None and metrics.enabled:
            self._h_apply_lag = metrics.histogram(f"stage.{STAGE_APPLY_LAG}")
            self._g_lag = metrics.gauge("replication.lag")
        else:
            self._h_apply_lag = None
            self._g_lag = None

    def run(self) -> None:
        try:
            sock = dial(self._endpoint, timeout=10.0)
        except OSError:
            log.exception("replica feed could not reach the log owner")
            return
        sock.settimeout(None)  # the stream blocks between entries
        self._sock = sock
        try:
            write_frame(sock, OP_SUBSCRIBE + _U64.pack(len(self._database)))
            while not self._stop_event.is_set():
                frame = read_frame(sock)
                if frame is None:
                    return  # owner shut down (or crashed: coordinator's job)
                if frame[:1] != STREAM_ENTRY:
                    raise ProtocolError("unexpected apply-stream frame")
                index = _U64.unpack_from(frame, 1)[0]
                uid = _U64.unpack_from(frame, 1 + _U64.size)[0]
                published = _U64.unpack_from(frame, 1 + 2 * _U64.size)[0]
                (publish_ts,) = _F64.unpack_from(frame, 1 + 3 * _U64.size)
                blob = frame[_STREAM_HDR:]
                if self._database.apply_replicated(index, blob, uid):
                    self.applied += 1
                if self._h_apply_lag is not None:
                    self._h_apply_lag.record(
                        max(0.0, time.monotonic() - publish_ts)
                    )
                    self._g_lag.set(
                        max(0, published - len(self._database))
                    )
        except (ProtocolError, OSError, ValueError):
            if not self._stop_event.is_set():
                log.exception("replica apply-stream failed; local GETs "
                              "will serve a frozen snapshot")
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass

    def stop(self) -> None:
        self._stop_event.set()
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        if self.is_alive():
            self.join(timeout=5.0)


class FederatedWorkerServer(CommunixServer):
    """The request core run by replica workers: local validation, owner
    forwarding for mutations, replica-fed database for reads.

    No store is opened here (``data_dir`` is the owner's alone), so the
    in-memory database starts empty and fills from the apply-stream's
    backfill.  GETs during that window serve a shorter prefix — clients
    paginate until ``more`` clears, so they simply fetch the rest on the
    next page."""

    def __init__(self, config: ServerConfig, internal_endpoint,
                 authority=None, clock=None, metrics=None):
        replica_config = ServerConfig(**{**config.__dict__, "data_dir": None})
        super().__init__(config=replica_config, authority=authority,
                         clock=clock, metrics=metrics)
        self._forward = LogForwardClient(internal_endpoint)
        self._feed = ReplicaFeed(self.database, internal_endpoint,
                                 metrics=self.metrics)
        # Cross-process stage histograms (pre-resolved; see CommunixServer
        # on why): the whole forward hop, and the hop minus the owner's
        # own stamped stages — wire transit plus owner-side queueing.
        self._h_forward = self.metrics.histogram(
            f"stage.{STAGE_REPL_FORWARD}"
        )
        self._h_owner_queue = self.metrics.histogram(
            f"stage.{STAGE_OWNER_QUEUE}"
        )
        self._h_guard_uid = (
            self.metrics.histogram(f"stage.{STAGE_GUARD_CHECK}")
            if self.guard is not None else None
        )

    def start_replication(self) -> None:
        self._feed.start()

    @property
    def replica_feed(self) -> ReplicaFeed:
        return self._feed

    def process_add(self, blob: bytes, token: str, trace=None) -> AddOutcome:
        """Local cheap checks + AES decode, then forward; the ack waits
        for the owner's durability reply, never this process's state.

        The request's trace id rides the forward hop, the owner stamps
        its stages on it, and the durability reply's stamps are folded
        back into ``trace`` — one end-to-end trace for a two-process ADD.
        """
        timed = self._obs_on or trace is not None
        exemplar = trace.hex_id() if trace is not None else None
        if len(blob) > self.config.max_signature_bytes:
            return self._rejected("oversized")
        uid = self.validator.resolve_uid(token, trace)
        if uid is None:
            return self._rejected("bad_token")
        if self.guard is not None:
            started = perf_counter() if timed else 0.0
            admitted = self.guard.admit_uid(uid)
            if timed:
                elapsed = perf_counter() - started
                if self._h_guard_uid is not None:
                    self._h_guard_uid.record(elapsed, exemplar)
                if trace is not None:
                    trace.stamp(STAGE_GUARD_CHECK, elapsed)
            if not admitted:
                # Replica-local shed on the sender dimension: a flooding
                # uid never costs the owner a forward round-trip.  The
                # signature dimension (which needs the parsed sig_id)
                # still runs on the owner, whose own guard re-checks the
                # forwarded ADD.
                return self._rejected("shed")
        started = perf_counter() if timed else 0.0
        try:
            outcome, owner_stages = self._forward.forward_add(
                uid, blob, trace.trace_id if trace is not None else 0
            )
        except ForwardError:
            log.exception("ADD forward failed; not acknowledged")
            return self._rejected("store_error")
        if timed:
            hop = perf_counter() - started
            self._h_forward.record(hop, exemplar)
            # Clocks across processes can't subtract per-stage, but both
            # ends of the hop are this thread's clock: hop minus the
            # owner's top-level stamps = wire transit + owner queueing.
            owner_time = (owner_stages.get(STAGE_VALIDATE, 0.0)
                          + owner_stages.get(STAGE_DB_APPEND, 0.0))
            owner_queue = max(0.0, hop - owner_time)
            self._h_owner_queue.record(owner_queue, exemplar)
            if trace is not None:
                trace.stamp(STAGE_REPL_FORWARD, hop)
                trace.stamp(STAGE_OWNER_QUEUE, owner_queue)
                trace.merge_stages(owner_stages)
        if outcome.accepted:
            self._counters.adds_accepted.add()
            return outcome
        return self._rejected(outcome.verdict)

    def issue_user_token(self) -> str:
        try:
            return self._forward.forward_issue()
        except ForwardError as exc:
            raise ProtocolError("user-id service unavailable") from exc

    def close(self) -> None:
        self._feed.stop()
        self._forward.close()
        super().close()
