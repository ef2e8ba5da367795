"""Run a Communix client daemon (or one-shot tools) from the command line.

Usage::

    python -m repro.client --server tcp://HOST:PORT [--repository DIR]
        [--period-seconds 86400] [--once]
    python -m repro.client stats --server tcp://HOST:PORT [--watch N]

``--server`` accepts any endpoint URL (``tcp://host:port``,
``unix:///path``, ``unix://@name``).

The daemon downloads new signatures from the server into the machine-local
repository (incrementally — only what is missing), once per period; the
paper's deployment period is one day.  ``--once`` performs a single poll and
exits, which is handy in scripts and cron jobs.

``stats`` issues a STATS request and pretty-prints the v2 response —
request counters, rejection breakdown, token-cache hit rate, and the
per-stage latency histograms the server records (see
``docs/architecture.md`` §9) — falling back to the six v1 counters when
the server predates STATS v2.  ``--watch N`` refreshes every N seconds.
"""

from __future__ import annotations

import argparse
import signal
import threading
import time

from repro.client.client import CommunixClient, DEFAULT_PERIOD
from repro.client.endpoints import SocketEndpoint
from repro.core.repository import LocalRepository
from repro.net import EndpointError
from repro.obs import Histogram
from repro.util.errors import HistoryError
from repro.util.logging import enable_console_logging


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.client",
        description="Communix signature-download daemon",
    )
    parser.add_argument(
        "--server", required=True, metavar="URL",
        help="server endpoint: tcp://HOST:PORT or unix:///PATH",
    )
    parser.add_argument(
        "--repository", default="communix-repository",
        help="local repository directory: signature log segments plus a "
             "state.json sidecar (created if missing)",
    )
    parser.add_argument(
        "--period-seconds", type=float, default=DEFAULT_PERIOD,
        help="seconds between polls (paper: 86400, once a day)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="poll a single time and exit",
    )
    return parser


def build_stats_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.client stats",
        description="Fetch and pretty-print a Communix server's STATS",
    )
    parser.add_argument(
        "--server", required=True, metavar="URL",
        help="server endpoint: tcp://HOST:PORT or unix:///PATH",
    )
    parser.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="refresh every SECONDS until interrupted",
    )
    return parser


def format_stats(payload: dict) -> str:
    """Human-readable rendering of a STATS response (v1 or v2)."""
    version = payload.get("version", 1)
    lines = [f"STATS v{version}"]
    lines.append(f"  database_size      {payload.get('database_size', 0)}")
    lines.append(f"  adds_accepted      {payload.get('adds_accepted', 0)}")
    lines.append(f"  gets_served        {payload.get('gets_served', 0)}")
    hits = payload.get("token_cache_hits", 0)
    misses = payload.get("token_cache_misses", 0)
    total = hits + misses
    rate = f" ({hits / total:.1%} hit)" if total else ""
    lines.append(f"  token_cache        {hits} hits / {misses} misses{rate}")
    if version < 2:
        lines.append("  (v1 server: no stage histograms; upgrade for more)")
        return "\n".join(lines)
    lines.append(
        f"  signatures_served  {payload.get('signatures_served', 0)}"
    )
    rejected = payload.get("adds_rejected") or {}
    if rejected:
        breakdown = ", ".join(
            f"{verdict}={count}" for verdict, count in sorted(rejected.items())
        )
        lines.append(f"  adds_rejected      {breakdown}")
    metrics = payload.get("metrics") or {}
    histograms = metrics.get("histograms") or {}
    if histograms:
        lines.append("  stage latencies (ms):")
        lines.append(f"    {'stage':<22}{'count':>9}{'p50':>9}"
                     f"{'p95':>9}{'p99':>9}{'max':>9}")
        for name in sorted(histograms):
            summary = Histogram.from_wire(histograms[name]).summary()
            if not summary.get("count"):
                continue
            lines.append(
                f"    {name:<22}{summary['count']:>9}"
                f"{summary['p50_ms']:>9.2f}{summary['p95_ms']:>9.2f}"
                f"{summary['p99_ms']:>9.2f}{summary['max_ms']:>9.2f}"
            )
    gauges = metrics.get("gauges") or {}
    if gauges:
        lines.append("  gauges:")
        for name in sorted(gauges):
            lines.append(f"    {name:<26}{gauges[name]:>12g}")
    counters = metrics.get("counters") or {}
    shown = {"adds_accepted", "gets_served", "signatures_served",
             "adds_rejected", "token_cache.hits", "token_cache.misses"}
    extra = {k: v for k, v in counters.items() if k not in shown}
    if extra:
        lines.append("  counters:")
        for name in sorted(extra):
            lines.append(f"    {name:<26}{extra[name]:>12}")
    return "\n".join(lines)


def stats_main(argv: list[str]) -> int:
    args = build_stats_parser().parse_args(argv)
    try:
        endpoint = SocketEndpoint(args.server)
    except EndpointError as exc:
        raise SystemExit(f"--server: {exc}")
    try:
        while True:
            print(format_stats(endpoint.stats()))
            if args.watch is None:
                return 0
            time.sleep(max(0.1, args.watch))
            print()
    except KeyboardInterrupt:
        return 0
    finally:
        endpoint.close()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        import sys

        argv = sys.argv[1:]
    if argv and argv[0] == "stats":
        return stats_main(argv[1:])
    args = build_parser().parse_args(argv)
    enable_console_logging()
    try:
        endpoint = SocketEndpoint(args.server)
    except EndpointError as exc:
        raise SystemExit(f"--server: {exc}")
    try:
        repository = LocalRepository(path=args.repository)
    except HistoryError as exc:
        raise SystemExit(f"--repository: {exc}")
    client = CommunixClient(
        endpoint=endpoint, repository=repository, period=args.period_seconds
    )
    if args.once:
        report = client.poll_once()
        print(
            f"downloaded {report.received} signatures "
            f"(stored {report.stored}, malformed {report.malformed}); "
            f"repository now holds {len(repository)}"
        )
        endpoint.close()
        repository.close()
        return 1 if report.failed else 0
    client.start()
    print(f"communix-client polling {args.server} every "
          f"{args.period_seconds:.0f}s into {args.repository}")
    stop = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        stop.wait()
    finally:
        client.stop()
        endpoint.close()
        repository.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
