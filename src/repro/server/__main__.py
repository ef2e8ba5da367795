"""Run a Communix signature server from the command line.

Usage::

    python -m repro.server [--addr tcp://127.0.0.1:7199]
        [--addr unix:///var/run/communix.sock]
        [--quota-per-day 10] [--no-adjacency-check]
        [--data-dir /var/lib/communix] [--fsync always]
        [--checkpoint-every 4096] [--server-procs 4]
        [--admin-addr tcp://127.0.0.1:9199] [--metrics-log metrics.jsonl]
        [--slow-request-ms 50] [--no-metrics]

``--addr`` is repeatable: the server listens on every given endpoint
simultaneously (TCP and UNIX-domain clients share one database); the
default is ``tcp://127.0.0.1:7199``.  With ``--data-dir`` the signature
database is durable: accepted signatures go to a segmented write-ahead
log (fsync policy per ``--fsync``), restart replays it, and ``SIGTERM``/
``SIGINT`` trigger a graceful drain — in-flight requests finish, the log
is flushed and sealed with a final checkpoint, UNIX socket files are
unlinked — instead of the process dying mid-write.  The server prints its
bound address(es) and serves until interrupted.  Clients connect with
:class:`repro.client.SocketEndpoint` or via ``python -m repro.client``.

``--server-procs N`` federates the tier over N worker processes sharing
every listen endpoint (see :mod:`repro.server.federation` and
``docs/architecture.md`` §10): worker 0 is the single writer of the
write-ahead log and group-commits the ADDs its sibling replicas forward
to it, so throughput scales with processes while durability semantics
stay exactly those of the single-process server.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.crypto.backend import get_backend
from repro.net import EndpointError, parse_endpoint
from repro.obs import MetricsLogWriter
from repro.server.server import CommunixServer, ServerConfig
from repro.server.transport import ServerTransport
from repro.store import StoreError, parse_fsync_policy
from repro.util.errors import CryptoError
from repro.util.logging import enable_console_logging

DEFAULT_ADDR = "tcp://127.0.0.1:7199"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Communix collaborative deadlock-immunity server",
    )
    parser.add_argument(
        "--addr", action="append", metavar="URL", default=None,
        help="listen endpoint (tcp://HOST:PORT or unix:///PATH or "
             f"unix://@NAME; default {DEFAULT_ADDR}); repeat to serve "
             "several at once",
    )
    parser.add_argument(
        "--quota-per-day", type=int, default=10,
        help="max signatures accepted per user per day (paper: 10)",
    )
    parser.add_argument(
        "--no-adjacency-check", action="store_true",
        help="disable the same-user adjacency rejection (testing only)",
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=60.0,
        help="close connections idle longer than this many seconds",
    )
    parser.add_argument(
        "--backlog", type=int, default=512,
        help="listen backlog (raise for large client ramps)",
    )
    parser.add_argument(
        "--workers", type=int, default=8,
        help="request-processing worker threads",
    )
    parser.add_argument(
        "--server-procs", type=int, default=1, metavar="N",
        help="federate the server over N worker processes sharing the "
             "listen endpoint(s) (SO_REUSEPORT for TCP; passed listening "
             "FDs for unix://): worker 0 owns the write-ahead log and "
             "group-commits forwarded ADDs, the others forward mutations "
             "to it and serve GETs from replicated in-memory copies; "
             "1 (default) keeps the single-process server",
    )
    # Internal federation plumbing (set by the coordinator, never by hand).
    parser.add_argument("--federation-worker", type=int, default=None,
                        metavar="IDX", help=argparse.SUPPRESS)
    parser.add_argument("--internal-addr", default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--fd-channel", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument(
        "--data-dir", metavar="DIR", default=None,
        help="persist the signature database to a segmented write-ahead "
             "log in DIR (replayed on restart); default: memory only",
    )
    parser.add_argument(
        "--fsync", metavar="POLICY", default="always",
        help="store fsync policy: 'always' (acked ADDs survive kill -9), "
             "'interval:<ms>' (background flusher), or 'never'",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=4096, metavar="N",
        help="write a checkpoint manifest every N accepted signatures "
             "(0: only at clean shutdown); restart replays just the "
             "records past the newest checkpoint",
    )
    parser.add_argument(
        "--crypto-backend", metavar="NAME", default=None,
        help="AES backend for user-ID tokens: 'pure' (FIPS-197 reference), "
             "'fast' (OpenSSL via the cryptography package), or 'auto' "
             "(default: REPRO_CRYPTO_BACKEND env var, then fast when "
             "available)",
    )
    parser.add_argument(
        "--token-cache-size", type=int, default=65_536, metavar="N",
        help="bound on the validator's decoded-token LRU cache",
    )
    parser.add_argument(
        "--guard", action="store_true",
        help="enable the streaming admission guard (repro.guard): "
             "count-min sketches over sender uid / signature id / source "
             "endpoint feed a flood detector that sheds or throttles "
             "flooding keys before crypto and quota work is spent",
    )
    parser.add_argument(
        "--guard-budget", type=int, default=64, metavar="N",
        help="guard master budget in operations per decay window-pair "
             "(per-dimension budgets derive from it; see repro.guard)",
    )
    parser.add_argument(
        "--guard-window", type=float, default=5.0, metavar="SECONDS",
        help="guard decay-window length; detection reacts within about "
             "one window and a retired flooder is forgotten after two",
    )
    parser.add_argument(
        "--guard-tarpit", type=float, default=0.025, metavar="SECONDS",
        help="delay before a loop-shed response is flushed; the shed "
             "connection is held busy meanwhile, so a closed-loop "
             "flooder is throttled to ~1/tarpit requests per second",
    )
    parser.add_argument(
        "--admin-addr", action="append", metavar="URL", default=None,
        help="serve a plaintext-HTTP observability plane on this endpoint "
             "(GET /metrics Prometheus text, /stats JSON, /traces slowest "
             "request traces, /healthz); repeatable",
    )
    parser.add_argument(
        "--metrics-log", metavar="PATH", default=None,
        help="append a JSONL metrics snapshot to PATH every "
             "--metrics-interval seconds (plus one final line at shutdown)",
    )
    parser.add_argument(
        "--metrics-interval", type=float, default=5.0, metavar="SECONDS",
        help="seconds between --metrics-log snapshots",
    )
    parser.add_argument(
        "--slow-request-ms", type=float, default=0.0, metavar="MS",
        help="log any request slower than MS milliseconds with a "
             "per-stage breakdown (0: disabled)",
    )
    parser.add_argument(
        "--trace-buffer", type=int, default=64, metavar="N",
        help="retain the N slowest completed request traces in memory "
             "for the admin plane's /traces endpoint",
    )
    parser.add_argument(
        "--no-metrics", action="store_true",
        help="disable the metrics registry entirely (no stage histograms, "
             "no admin-plane data; STATS keeps its v1 counters)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    enable_console_logging()
    if args.federation_worker is not None:
        # Spawned by the federation coordinator: stdout is its JSON
        # control channel, endpoints arrive via --addr/--fd-channel.
        from repro.server.federation import federation_worker_main

        return federation_worker_main(args)
    try:
        endpoints = [parse_endpoint(spec)
                     for spec in args.addr or [DEFAULT_ADDR]]
    except EndpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        parse_fsync_policy(args.fsync)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        get_backend(args.crypto_backend)  # fail fast on a bad/unavailable pin
    except CryptoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        admin_endpoints = [parse_endpoint(spec)
                           for spec in (args.admin_addr or [])]
    except EndpointError as exc:
        print(f"error: --admin-addr: {exc}", file=sys.stderr)
        return 2
    if args.server_procs > 1:
        from repro.server.federation import run_federation

        return run_federation(args, endpoints, admin_endpoints)
    if args.server_procs < 1:
        print("error: --server-procs must be positive", file=sys.stderr)
        return 2
    config = ServerConfig(
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
    try:
        server = CommunixServer(config=config)
    except (OSError, StoreError) as exc:
        print(f"error: cannot open data dir {args.data_dir!r}: {exc}",
              file=sys.stderr)
        return 2
    if server.store is not None:
        recovery = server.store.recovery
        print(
            f"communix-server restored {len(server.database)} signatures "
            f"from {args.data_dir} "
            f"({server.store.replayed_past_checkpoint} replayed past the "
            f"checkpoint, {recovery.truncated_bytes} torn byte(s) repaired; "
            f"fsync {server.store.fsync_policy})"
        )
    transport = ServerTransport(
        server, endpoints=endpoints,
        accept_backlog=args.backlog, workers=args.workers,
        idle_timeout=args.idle_timeout,
        admin_endpoints=admin_endpoints,
    )
    try:
        transport.start()
    except EndpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics_writer = None
    if args.metrics_log:
        metrics_writer = MetricsLogWriter(
            server.metrics, args.metrics_log, interval=args.metrics_interval
        )
        metrics_writer.start()
    bound = transport.bound_endpoints
    print(f"communix-server listening on {bound[0].url()} "
          f"(quota {config.max_signatures_per_user_per_day}/user/day, "
          f"crypto backend {server.authority.backend_name})")
    for endpoint in bound[1:]:
        print(f"communix-server also listening on {endpoint.url()}")
    for endpoint in transport.bound_admin_endpoints:
        print(f"communix-server admin plane on {endpoint.url()}")
    # SIGTERM/SIGINT request a *graceful* stop: the handler only sets the
    # event, and the main thread then runs the full drain — in-flight
    # requests finish, the store is flushed and sealed (final checkpoint),
    # listeners close and UNIX socket files are unlinked — so a signaled
    # server never dies mid-write.
    stop = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        stop.wait()
    finally:
        transport.stop()  # graceful drain; flushes the store
        if metrics_writer is not None:
            # After the drain, so the final JSONL line covers every
            # request this process served.
            metrics_writer.stop()
        try:
            server.close()  # seal: final checkpoint manifest + closed log
        except OSError as exc:
            # The log itself was flushed by the drain; only the manifest
            # is stale.  Report it but still exit with the stats line.
            print(f"error: final checkpoint failed: {exc}", file=sys.stderr)
        stats = server.stats
        durable = ""
        if server.store is not None:
            durable = (f" ({server.store.record_count} durable, "
                       f"checkpointed at {server.store.checkpoint_count})")
        print(
            f"served {stats.adds_accepted} adds, {stats.gets_served} gets; "
            f"database holds {len(server.database)} signatures{durable}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
