"""Federated server tier: N worker processes behind one listen endpoint.

A single server process is one Python interpreter: one GIL, one FD
budget, one fsync stream.  Federation forks ``--server-procs N`` worker
processes that *share the client-facing endpoint* and splits the roles
the way the store's single-writer invariants demand:

* **Endpoint sharing** — TCP endpoints are bound by every worker with
  ``SO_REUSEPORT`` (the kernel load-balances accepts across the
  processes); the coordinator holds each resolved port open with a
  bound-but-never-listening probe socket so a ``tcp://HOST:0`` port stays
  stable across worker restarts.  UNIX endpoints cannot be re-bound, so the
  coordinator binds + listens once and passes the listening FD to every
  worker over an inherited socketpair (``SCM_RIGHTS``); all workers then
  ``accept`` from the same socket.
* **Single-writer log** — worker 0 is the *log owner*: the only process
  that opens ``--data-dir``.  Replica workers forward validated ADDs to
  the owner over an internal ``unix://`` endpoint and ack their client
  only after the owner's durability reply; GETs are served from each
  replica's in-memory database, fed by the owner's apply-stream (see
  :mod:`repro.server.replication`).  Under ``--fsync always`` the owner
  batches concurrent forwarded appends into one fsync (group commit, see
  :mod:`repro.store.wal`).
* **Coordinator** — this module's :func:`run_federation`: spawns the
  workers, barriers on their ``ready`` events (owner first, so replicas
  always find the internal endpoint up), prints the canonical
  ``communix-server listening on ...`` line once all are serving, fans
  SIGTERM/SIGINT out as a two-phase graceful drain (replicas first, so
  their in-flight forwards still find the owner; then the owner, which
  seals the store), detects crashed workers (stdout EOF) and keeps the
  survivors serving, and merges the per-worker stats and metrics
  registries into one summary/``--metrics-log`` line.  UNIX socket
  files are **coordinator-owned**: stale-socket recovery happens here at
  bind time and the files are unlinked here at shutdown — a worker
  (least of all a crashing one) never unlinks a path its siblings still
  serve.

Control protocol (line-delimited JSON on the worker's stdout, bare
commands on its stdin — the idiom of :mod:`repro.loadgen.federation`)::

    worker  → {"event": "ready", "index": 0, "pid": ..., ...}
    coord   → drain\\n
    worker  → {"event": "result", "stats": {...}, "metrics": {...}, ...}
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.net import (
    EndpointError,
    adopt_listener,
    cleanup_listener,
    parse_endpoint,
    recv_listener_fd,
    reserve_tcp_port,
    send_listener_fd,
)
from repro.net import listen as net_listen
from repro.obs import merge_registry_snapshots
from repro.util.logging import get_logger

log = get_logger("server.federation")

#: Coordinator -> worker stdin command starting the graceful drain.
_DRAIN = "drain"
#: How long the coordinator waits for a worker's ``ready`` (the owner may
#: be replaying a large log first).
_READY_TIMEOUT = 120.0
#: How long a drained worker gets to emit its ``result`` and exit.
_DRAIN_TIMEOUT = 30.0
#: PYTHONPATH root so workers import the same ``repro`` as the coordinator.
_SRC_ROOT = str(Path(__file__).resolve().parent.parent.parent)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


# --------------------------------------------------------------- worker side
def _worker_config(args):
    """The worker's ServerConfig from the CLI namespace (same mapping as
    the single-process path in ``repro.server.__main__``)."""
    from repro.server.server import ServerConfig

    return ServerConfig(
        max_signatures_per_user_per_day=args.quota_per_day,
        adjacency_check=not args.no_adjacency_check,
        data_dir=args.data_dir,
        fsync_policy=args.fsync,
        checkpoint_every=args.checkpoint_every,
        crypto_backend=args.crypto_backend,
        token_cache_size=args.token_cache_size,
        metrics_enabled=not args.no_metrics,
        slow_request_ms=args.slow_request_ms,
        guard_enabled=args.guard,
        guard_budget=args.guard_budget,
        guard_window_s=args.guard_window,
        guard_tarpit_s=args.guard_tarpit,
        trace_buffer_size=args.trace_buffer,
    )


def _recv_shared_listeners(channel_fd: int) -> list:
    """Adopt every listening FD the coordinator sends over the inherited
    socketpair; EOF (coordinator closed its end) terminates the batch."""
    pairs = []
    channel = socket.socket(fileno=channel_fd)
    try:
        while True:
            try:
                url, fd = recv_listener_fd(channel)
            except EndpointError:
                break
            endpoint = parse_endpoint(url)
            pairs.append((adopt_listener(fd, endpoint), endpoint))
    finally:
        channel.close()
    return pairs


def federation_worker_main(args) -> int:
    """``python -m repro.server --federation-worker IDX``: one worker.

    stdout is the JSON control channel (never the human banner); logs go
    to stderr.  Worker 0 opens the store and serves the internal
    replication endpoint; every other index runs the forwarding replica
    core.  SIGTERM/SIGINT, a ``drain`` line on stdin, and stdin EOF (the
    coordinator died) all trigger the same graceful drain.
    """
    from repro.server.replication import FederatedWorkerServer, ReplicationHub
    from repro.server.server import CommunixServer
    from repro.server.transport import ServerTransport

    index = args.federation_worker
    is_owner = index == 0
    config = _worker_config(args)
    if not is_owner:
        config.data_dir = None  # the log is the owner's alone

    endpoints = [parse_endpoint(spec) for spec in (args.addr or [])]
    listen_sockets = []
    if args.fd_channel is not None:
        listen_sockets = _recv_shared_listeners(args.fd_channel)
    if not endpoints and not listen_sockets:
        _emit({"event": "abort", "index": index,
               "reason": "worker has no endpoints to serve"})
        return 2

    restored = None
    hub = None
    try:
        if is_owner:
            server = CommunixServer(config=config)
            if server.store is not None:
                recovery = server.store.recovery
                restored = (
                    f"communix-server restored {len(server.database)} "
                    f"signatures from {args.data_dir} "
                    f"({server.store.replayed_past_checkpoint} replayed past "
                    f"the checkpoint, {recovery.truncated_bytes} torn byte(s) "
                    f"repaired; fsync {server.store.fsync_policy})"
                )
            hub = ReplicationHub(server, args.internal_addr)
            hub.start()
        else:
            server = FederatedWorkerServer(config, args.internal_addr)
            server.start_replication()
    except Exception as exc:  # noqa: BLE001 - must reach the coordinator
        log.exception("worker %d failed to start", index)
        _emit({"event": "abort", "index": index, "reason": str(exc)})
        return 2

    transport = ServerTransport(
        server, endpoints=endpoints,
        accept_backlog=args.backlog, workers=args.workers,
        idle_timeout=args.idle_timeout,
        # Every worker serves its own admin plane: per-worker metrics
        # (a replica's replication.lag, the owner's group-commit stages)
        # are only scrapeable from the process that records them.  The
        # coordinator gives replicas ephemeral-port planes and prints
        # every resolved URL.
        admin_endpoints=[parse_endpoint(spec)
                         for spec in (args.admin_addr or [])],
        listen_sockets=listen_sockets,
        reuse_port=True,
        cleanup_listeners=False,  # socket files are the coordinator's
    )
    try:
        transport.start()
    except EndpointError as exc:
        _emit({"event": "abort", "index": index, "reason": str(exc)})
        if hub is not None:
            hub.stop()
        server.close()
        return 2

    _emit({
        "event": "ready",
        "index": index,
        "pid": os.getpid(),
        "addrs": [ep.url() for ep in transport.bound_endpoints],
        "admin": [ep.url() for ep in transport.bound_admin_endpoints],
        "backend": server.authority.backend_name,
        "restored": restored,
    })

    stop = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    while not stop.is_set():
        try:
            readable, _, _ = select.select([sys.stdin], [], [], 0.2)
        except OSError:  # pragma: no cover - stdin gone
            break
        if not readable:
            continue
        command = sys.stdin.readline()
        if not command or command.strip() == _DRAIN:
            break  # EOF (dead coordinator) drains too

    transport.stop()  # graceful drain; flushes the store on the owner
    if hub is not None:
        hub.stop()
    try:
        server.close()
    except OSError as exc:
        log.error("final checkpoint failed: %s", exc)
    stats = server.stats
    result = {
        "event": "result",
        "index": index,
        "pid": os.getpid(),
        "ok": True,
        "stats": {
            "adds_accepted": stats.adds_accepted,
            "adds_rejected": stats.adds_rejected,
            "gets_served": stats.gets_served,
            "signatures_served": stats.signatures_served,
        },
        "metrics": server.metrics.snapshot(),
        "db_size": len(server.database),
    }
    if is_owner and server.store is not None:
        result["durable"] = server.store.record_count
        result["checkpointed"] = server.store.checkpoint_count
    if hub is not None:
        result["forwarded_adds"] = hub.forwarded_adds
        result["forwarded_issues"] = hub.forwarded_issues
    if not is_owner:
        result["replica_applied"] = server.replica_feed.applied
    _emit(result)
    return 0


# ---------------------------------------------------------- coordinator side
class _Worker:
    """Coordinator-side handle for one server worker process."""

    def __init__(self, index: int, proc: subprocess.Popen):
        self.index = index
        self.proc = proc
        self.events: dict[str, dict] = {}
        self.eof = False
        self.crashed = False

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        return not self.eof and self.proc.poll() is None


def _worker_env() -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = _SRC_ROOT + (os.pathsep + existing if existing else "")
    return env


def _spawn_worker(index: int, args, tcp_endpoints, unix_listeners,
                  internal_addr: str) -> _Worker:
    command = [
        sys.executable, "-u", "-m", "repro.server",
        "--federation-worker", str(index),
        "--internal-addr", internal_addr,
        "--quota-per-day", str(args.quota_per_day),
        "--idle-timeout", str(args.idle_timeout),
        "--backlog", str(args.backlog),
        "--workers", str(args.workers),
        "--fsync", args.fsync,
        "--checkpoint-every", str(args.checkpoint_every),
        "--token-cache-size", str(args.token_cache_size),
        "--slow-request-ms", str(args.slow_request_ms),
        "--trace-buffer", str(args.trace_buffer),
    ]
    for endpoint in tcp_endpoints:
        command += ["--addr", endpoint.url()]
    if args.no_adjacency_check:
        command.append("--no-adjacency-check")
    if args.guard:
        # Every worker runs its own guard over the traffic it terminates
        # (per-worker sketches); the coordinator's merged metrics pool
        # them into the owner-merged view via merge_registry_snapshots.
        command += ["--guard", "--guard-budget", str(args.guard_budget),
                    "--guard-window", str(args.guard_window),
                    "--guard-tarpit", str(args.guard_tarpit)]
    if args.crypto_backend:
        command += ["--crypto-backend", args.crypto_backend]
    if args.no_metrics:
        command.append("--no-metrics")
    if index == 0:
        if args.data_dir:
            command += ["--data-dir", args.data_dir]
        for spec in args.admin_addr or []:
            command += ["--admin-addr", spec]
    elif args.admin_addr:
        # The user asked for an admin plane: replicas get their own on an
        # ephemeral port (the user's explicit addresses belong to the
        # owner; two processes cannot share one without SO_REUSEPORT
        # scrape ambiguity).  Resolved URLs surface in the ready event.
        command += ["--admin-addr", "tcp://127.0.0.1:0"]
    channel = None
    pass_fds = ()
    if unix_listeners:
        channel = socket.socketpair()
        command += ["--fd-channel", str(channel[1].fileno())]
        pass_fds = (channel[1].fileno(),)
    proc = subprocess.Popen(
        command,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=None,  # worker logs/tracebacks surface on our stderr
        text=True,
        bufsize=1,
        env=_worker_env(),
        pass_fds=pass_fds,
    )
    if channel is not None:
        parent, child = channel
        child.close()
        for sock, endpoint in unix_listeners:
            send_listener_fd(parent, endpoint, sock.fileno())
        parent.close()  # EOF tells the worker the batch is complete
    return _Worker(index, proc)


def _pump_events(workers: list[_Worker], wanted: str, deadline: float) -> None:
    """Read control lines until every live worker produced ``wanted`` (or
    aborted/died) or the deadline passes."""
    by_stream = {w.proc.stdout: w for w in workers}

    def pending() -> list[_Worker]:
        return [w for w in workers
                if not w.eof and wanted not in w.events
                and "abort" not in w.events]

    while pending() and time.monotonic() < deadline:
        streams = [w.proc.stdout for w in pending()]
        ready, _, _ = select.select(
            streams, [], [], min(0.5, max(0.01, deadline - time.monotonic()))
        )
        for stream in ready:
            worker = by_stream[stream]
            line = stream.readline()
            if not line:
                worker.eof = True
                continue
            try:
                message = json.loads(line)
            except ValueError:
                continue  # stray non-protocol output
            worker.events[str(message.get("event"))] = message


def _send_command(worker: _Worker, command: str) -> None:
    try:
        worker.proc.stdin.write(command + "\n")
        worker.proc.stdin.flush()
    except (OSError, ValueError):
        pass  # already dead; its EOF is handled by the pump


def _reap(workers: list[_Worker], grace: float = _DRAIN_TIMEOUT) -> None:
    for worker in workers:
        proc = worker.proc
        try:
            if proc.stdin:
                proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
            proc.kill()
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                pass
        try:
            if proc.stdout:
                proc.stdout.close()
        except OSError:
            pass


def _drain_group(group: list[_Worker]) -> None:
    """Two-phase-drain helper: tell every live worker in ``group`` to
    drain and collect its ``result``."""
    live = [w for w in group if w.alive()]
    for worker in live:
        _send_command(worker, _DRAIN)
    if live:
        _pump_events(live, "result", time.monotonic() + _DRAIN_TIMEOUT)


def _merged_metrics(results: list[dict]) -> dict:
    """One registry snapshot for the whole tier: counters/histograms sum;
    the replicated database gauges are taken from the owner alone (every
    replica holds a copy of the same database — summing would read as
    ``procs × size``)."""
    merged = merge_registry_snapshots(r.get("metrics") or {} for r in results)
    owner = next((r for r in results if r.get("index") == 0), None)
    if owner:
        owner_gauges = (owner.get("metrics") or {}).get("gauges", {})
        for name in ("db.size", "db.segments"):
            if name in owner_gauges:
                merged["gauges"][name] = owner_gauges[name]
    return merged


def run_federation(args, endpoints, admin_endpoints) -> int:
    """Coordinator main for ``--server-procs N`` (N >= 2).

    Returns 0 on a clean run (all workers drained and reported); 1 when
    any worker crashed or failed to report.  ``endpoints`` and
    ``admin_endpoints`` are the already-parsed CLI endpoint lists.
    """
    procs = args.server_procs
    tcp_probes = []       # bound-not-listening sockets holding the ports
    unix_listeners = []   # coordinator-owned listening sockets to FD-pass
    bound = []            # all endpoints, original order, ports resolved
    try:
        for endpoint in endpoints:
            if endpoint.is_tcp:
                probe, resolved = reserve_tcp_port(endpoint)
                tcp_probes.append(probe)
                bound.append(resolved)
            else:
                sock, resolved = net_listen(endpoint, backlog=args.backlog)
                unix_listeners.append((sock, resolved))
                bound.append(resolved)
    except (EndpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for probe in tcp_probes:
            probe.close()
        for sock, endpoint in unix_listeners:
            sock.close()
            cleanup_listener(endpoint)
        return 2

    tcp_bound = [ep for ep in bound if ep.is_tcp]
    internal_addr = f"unix://@communix-{os.getpid()}-repl"
    workers: list[_Worker] = []
    failures: list[str] = []
    rc = 0
    try:
        # The owner first — replicas dial the internal endpoint as soon as
        # they start, so it must be up before any replica is spawned.
        owner = _spawn_worker(0, args, tcp_bound, unix_listeners,
                              internal_addr)
        workers.append(owner)
        _pump_events([owner], "ready", time.monotonic() + _READY_TIMEOUT)
        if "ready" not in owner.events:
            reason = owner.events.get("abort", {}).get(
                "reason", "log owner produced no ready event")
            print(f"error: worker 0 (log owner): {reason}", file=sys.stderr)
            owner.proc.kill()
            return 1
        for index in range(1, procs):
            workers.append(_spawn_worker(index, args, tcp_bound,
                                         unix_listeners, internal_addr))
        replicas = workers[1:]
        _pump_events(replicas, "ready", time.monotonic() + _READY_TIMEOUT)
        not_ready = [w for w in replicas if "ready" not in w.events]
        if not_ready:
            for worker in not_ready:
                reason = worker.events.get("abort", {}).get(
                    "reason", "no ready event before timeout")
                print(f"error: worker {worker.index}: {reason}",
                      file=sys.stderr)
            for worker in workers:
                worker.proc.kill()
            return 1

        ready0 = owner.events["ready"]
        print(f"communix-federation: {procs} workers "
              f"(log owner pid {owner.pid}, replicas "
              f"{', '.join(str(w.pid) for w in replicas) or 'none'})")
        if ready0.get("restored"):
            print(ready0["restored"])
        print(f"communix-server listening on {bound[0].url()} "
              f"(quota {args.quota_per_day}/user/day, "
              f"crypto backend {ready0.get('backend', '?')}, "
              f"{procs} worker processes)")
        for endpoint in bound[1:]:
            print(f"communix-server also listening on {endpoint.url()}")
        for worker in workers:
            ready = worker.events.get("ready", {})
            role = "owner" if worker.index == 0 else f"replica {worker.index}"
            for url in ready.get("admin", []):
                print(f"communix-server admin plane ({role}) on {url}")

        # ----------------------------------------------------- serve loop
        stop = threading.Event()
        signal.signal(signal.SIGINT, lambda *_: stop.set())
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
        by_stream = {w.proc.stdout: w for w in workers}
        while not stop.is_set():
            live = [w for w in workers if not w.eof]
            if not live:
                print("error: every worker exited; shutting down",
                      file=sys.stderr)
                rc = 1
                break
            try:
                ready, _, _ = select.select(
                    [w.proc.stdout for w in live], [], [], 0.2)
            except OSError:  # pragma: no cover - racing a closed pipe
                continue
            for stream in ready:
                worker = by_stream[stream]
                line = stream.readline()
                if line:
                    try:
                        message = json.loads(line)
                    except ValueError:
                        continue
                    worker.events[str(message.get("event"))] = message
                    continue
                worker.eof = True
                if stop.is_set() or "result" in worker.events:
                    continue
                worker.crashed = True
                rc = 1
                role = "log owner" if worker.index == 0 else "replica"
                failure = (f"worker {worker.index} ({role}, pid {worker.pid}) "
                           f"exited unexpectedly "
                           f"(rc={worker.proc.poll()})")
                failures.append(failure)
                print(f"communix-federation: {failure}; "
                      f"{sum(1 for w in workers if not w.eof)} worker(s) "
                      f"still serving", file=sys.stderr)

        # ------------------------------------------- two-phase drain
        # Replicas first: their in-flight ADDs forward to the owner, so
        # the owner's hub must outlive them; the owner drains last and
        # seals the store.
        _drain_group([w for w in workers if w.index != 0])
        _drain_group([w for w in workers if w.index == 0])
    finally:
        _reap(workers)
        for probe in tcp_probes:
            try:
                probe.close()
            except OSError:  # pragma: no cover
                pass
        for sock, endpoint in unix_listeners:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
            cleanup_listener(endpoint)  # coordinator-owned unlink

    results = [w.events["result"] for w in workers if "result" in w.events]
    for worker in workers:
        if "result" not in worker.events and not worker.crashed:
            failures.append(f"worker {worker.index} reported no result")
            rc = 1
    if args.metrics_log and results and not args.no_metrics:
        record = {"ts": time.time(), **_merged_metrics(results)}
        try:
            with open(args.metrics_log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        except OSError as exc:
            print(f"error: cannot write --metrics-log: {exc}",
                  file=sys.stderr)

    adds = sum(r["stats"]["adds_accepted"] for r in results)
    gets = sum(r["stats"]["gets_served"] for r in results)
    owner_result = next((r for r in results if r.get("index") == 0), None)
    db_size = owner_result["db_size"] if owner_result else 0
    durable = ""
    if owner_result and "durable" in owner_result:
        durable = (f" ({owner_result['durable']} durable, "
                   f"checkpointed at {owner_result['checkpointed']})")
    print(f"served {adds} adds, {gets} gets; "
          f"database holds {db_size} signatures{durable}")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return rc
