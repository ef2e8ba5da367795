"""Run a Communix client swarm from the command line.

Usage::

    # Against a running server (TCP or UNIX endpoint URL):
    python -m repro.loadgen --connect tcp://127.0.0.1:7199 --clients 500 \
        --scenario "cold=1,steady=2,churn=1" --rounds 5

    # Self-contained smoke (spins an in-process server, preloads it):
    python -m repro.loadgen --serve --preload 1000 --clients 200 \
        --scenario mix --timeout 60 --json swarm.json

    # Federated: 2 worker processes sharing one UNIX-socket server,
    # barrier-synchronized, metrics merged by the coordinator:
    python -m repro.loadgen --serve --addr unix:///tmp/communix.sock \
        --procs 2 --clients 20000 --scenario steady --rounds 1

``--scenario`` takes one scenario name (``cold``, ``steady``, ``churn``,
``forged``, ``adjacent``, ``flood``, ``rampflood``), a weighted mix such as
``"cold=1,steady=2"``, or the shorthand ``mix`` (an even benign+attack
blend).  ``--procs N`` forks N worker processes (each with its own FD
budget — how sweeps pass the 20k-FD per-process cap); ``--waves M``
reruns the swarm M times with disjoint client cohorts (rolling-cohort
mode).  Exit status is non-zero when clients error, any scenario aborts,
or the run does not finish inside ``--timeout``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.loadgen import federation
from repro.loadgen.engine import SwarmEngine
from repro.loadgen.scenarios import SCENARIO_NAMES, build_mix
from repro.loadgen.signatures import random_signature
from repro.net import EndpointError, parse_endpoint
from repro.util.logging import enable_console_logging

#: The ``--scenario mix`` shorthand: mostly benign traffic with every
#: attack class represented (the paper's §III-C threat mix).
DEFAULT_MIX = "cold=2,steady=4,churn=2,forged=1,adjacent=1,flood=1"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.loadgen",
        description="Event-driven Communix client swarm (load generator)",
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--connect", metavar="URL",
        help="drive an already-running Communix server "
             "(tcp://HOST:PORT or unix:///PATH)",
    )
    target.add_argument(
        "--serve", action="store_true",
        help="spin up an in-process server and drive it (self-contained)",
    )
    parser.add_argument(
        "--addr", metavar="URL", default="tcp://127.0.0.1:0",
        help="with --serve: the endpoint the in-process server listens on",
    )
    parser.add_argument("--preload", type=int, default=0,
                        help="with --serve: signatures preloaded into the "
                             "database before the swarm starts")
    parser.add_argument("--idle-timeout", type=float, default=600.0,
                        help="with --serve: server idle-connection sweep; "
                             "must exceed the barrier ramp, since parked "
                             "clients hold silent connections")
    parser.add_argument("--clients", type=int, default=100)
    parser.add_argument("--scenario", default="steady",
                        help=f"name ({', '.join(SCENARIO_NAMES)}), weighted "
                             f"mix like 'cold=1,steady=2', or 'mix'")
    parser.add_argument("--rounds", type=int, default=5,
                        help="ops per client (ADDs for steady/attack "
                             "scenarios, cycles for churn)")
    parser.add_argument("--page-size", type=int, default=256)
    parser.add_argument("--loops", type=int, default=2,
                        help="swarm event-loop threads (per process)")
    parser.add_argument("--connect-burst", type=int, default=128,
                        help="max in-flight dials per loop")
    parser.add_argument("--procs", type=int, default=1,
                        help="worker processes; >1 federates the swarm "
                             "across processes behind one start barrier")
    parser.add_argument("--waves", type=int, default=1,
                        help="rolling-cohort waves: rerun the swarm this "
                             "many times with disjoint client identities")
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", metavar="PATH",
                        help="write the metrics snapshot as JSON")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)  # federation-internal mode
    return parser


def _preload(server, count: int, seed: int) -> None:
    rng = random.Random(seed)
    db = server.database
    uid = 0
    while len(db) < count:
        signature = random_signature(rng)
        if db.contains(signature.sig_id):
            continue
        db.append(signature, signature.to_bytes(), uid)
        uid += 1


def _print_op_table(issued, snapshot) -> None:
    header = (f"{'op':<12} {'issued':>8} {'ok':>8} {'err':>6} "
              f"{'mean_ms':>9} {'p50_ms':>8} {'p95_ms':>8} {'p99_ms':>8}")
    print(header)
    print("-" * len(header))
    for op in sorted(set(issued) | set(snapshot.histograms) | set(snapshot.errors)):
        summary = (snapshot.histograms[op].summary()
                   if op in snapshot.histograms else
                   {"count": 0, "mean_ms": 0, "p50_ms": 0,
                    "p95_ms": 0, "p99_ms": 0})
        print(f"{op:<12} {issued.get(op, 0):>8} {summary['count']:>8} "
              f"{snapshot.errors.get(op, 0):>6} {summary['mean_ms']:>9} "
              f"{summary['p50_ms']:>8} {summary['p95_ms']:>8} "
              f"{summary['p99_ms']:>8}")


def _print_summary(snapshot, elapsed: float, engine: SwarmEngine) -> None:
    issued = engine.issued()
    print(f"\nclients: {engine.client_count}  finished: "
          f"{engine.finished_count}  wall: {elapsed:.2f}s  "
          f"throughput: {snapshot.completed / elapsed:.0f} req/s"
          if elapsed > 0 else "")
    _print_op_table(issued, snapshot)


def _print_federated_summary(report) -> None:
    print(f"\nfederated: {report.procs} procs x {report.waves} wave(s)  "
          f"sessions: {report.distinct_sessions}  "
          f"held peak: {report.held_peak}  "
          f"window: {report.elapsed_s:.2f}s  "
          f"throughput: {report.requests_per_s:.0f} req/s")
    _print_op_table(report.issued, report.snapshot)
    for failure in report.failures:
        print(f"worker failure: {failure}", file=sys.stderr)


def _serve(args):
    """Start the in-process server for --serve; returns the transport."""
    from repro.server.server import CommunixServer
    from repro.server.transport import ServerTransport

    server = CommunixServer()
    if args.preload:
        _preload(server, args.preload, args.seed)
    transport = ServerTransport(server, endpoints=[args.addr],
                                accept_backlog=4096,
                                idle_timeout=args.idle_timeout)
    transport.start()
    return transport


def _run_federated(args, spec: str) -> int:
    transport = None
    if args.serve:
        transport = _serve(args)
        connect = transport.bound_endpoints[0].url()
    else:
        connect = args.connect

    def progress(wave, stage, count):
        if not args.quiet:
            if stage == "spawn":
                print(f"wave {wave}: spawning {count} workers", file=sys.stderr)
            else:
                print(f"wave {wave}: barrier up, {count} clients connected",
                      file=sys.stderr)

    try:
        report = federation.federated_run(
            connect=connect, procs=args.procs, clients=args.clients,
            scenario=spec, rounds=args.rounds, page_size=args.page_size,
            loops=args.loops, connect_burst=args.connect_burst,
            timeout=args.timeout, seed=args.seed, waves=args.waves,
            on_progress=progress,
        )
    finally:
        if transport is not None:
            transport.stop()

    if not args.quiet:
        _print_federated_summary(report)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_payload(), handle, indent=2)
            handle.write("\n")
    if not report.ok:
        print(f"FAILED: {len(report.failures)} worker failure(s)",
              file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.quiet:
        enable_console_logging()

    spec = DEFAULT_MIX if args.scenario == "mix" else args.scenario
    if "=" not in spec and "," not in spec:
        spec = f"{spec}=1"
    args.scenario_spec = spec

    if args.connect is not None:
        try:
            parse_endpoint(args.connect)
        except EndpointError as exc:
            print(f"--connect: {exc}", file=sys.stderr)
            return 2
    if args.serve:
        try:
            parse_endpoint(args.addr)
        except EndpointError as exc:
            print(f"--addr: {exc}", file=sys.stderr)
            return 2

    if args.worker:
        if not args.connect:
            print("--worker requires --connect", file=sys.stderr)
            return 2
        return federation.worker_main(args)

    if args.procs > 1 or args.waves > 1:
        return _run_federated(args, spec)

    transport = None
    if args.serve:
        transport = _serve(args)
        target = transport.bound_endpoints[0]
    else:
        target = parse_endpoint(args.connect)

    scenarios = build_mix(spec, args.clients, seed=args.seed,
                          rounds=args.rounds, page_size=args.page_size)

    engine = SwarmEngine(target, loops=args.loops,
                         connect_burst=args.connect_burst)
    engine.add_clients(scenarios)
    started = time.monotonic()
    try:
        engine.start()
        finished = engine.wait(args.timeout)
    finally:
        engine.stop()
        if transport is not None:
            transport.stop()
    elapsed = (engine.completed_at or time.monotonic()) - started
    snapshot = engine.snapshot()

    if not args.quiet:
        _print_summary(snapshot, elapsed, engine)
    if args.json:
        payload = {
            "clients": engine.client_count,
            "finished": engine.finished_count,
            "scenario": spec,
            "elapsed_s": round(elapsed, 3),
            "requests_per_s": round(snapshot.completed / elapsed, 1)
            if elapsed > 0 else 0.0,
            "issued": engine.issued(),
            **snapshot.to_dict(),
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    aborted = [s for s in scenarios if s.failed]
    if not finished:
        print(f"TIMEOUT: {engine.client_count - engine.finished_count} "
              f"clients unfinished after {args.timeout}s", file=sys.stderr)
        return 1
    if engine.crashed or aborted or snapshot.error_count:
        print(f"FAILED: crashed={engine.crashed} aborted={len(aborted)} "
              f"errors={snapshot.error_count}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
