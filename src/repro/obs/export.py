"""Exporters: Prometheus text rendering and the periodic JSONL log.

``render_prometheus`` turns a registry snapshot into the Prometheus
text exposition format (version 0.0.4) served by the transport's admin
plane on ``--admin-addr``.  Naming scheme: dotted instrument names become
underscore-joined and ``communix_``-prefixed; counters gain ``_total``,
histograms gain ``_seconds`` and render as summaries with p50/p95/p99
quantiles plus ``_sum``/``_count`` (fixed precomputed quantiles — the
buckets are geometric, so re-exposing all 108 as a Prometheus histogram
would be noise).

``MetricsLogWriter`` appends one JSON object per interval to
``--metrics-log PATH`` — the full ``registry.snapshot()`` plus a
timestamp — and writes a final line on stop, so a bench run's artifact
can attribute server-side time even for runs shorter than one interval.
"""

from __future__ import annotations

import json
import threading
import time

from repro.obs.histogram import Histogram
from repro.util.logging import get_logger

__all__ = ["render_prometheus", "MetricsLogWriter", "merge_registry_snapshots"]

log = get_logger("obs.export")

_QUANTILES = ((50.0, "0.5"), (95.0, "0.95"), (99.0, "0.99"))


def metric_name(name: str, namespace: str = "communix") -> str:
    """``stage.validate`` -> ``communix_stage_validate``."""
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return f"{namespace}_{cleaned}"


def render_prometheus(snapshot: dict, namespace: str = "communix") -> str:
    """Render a ``MetricsRegistry.snapshot()`` dict as Prometheus text."""
    lines: list[str] = []
    for name, value in snapshot.get("counters", {}).items():
        metric = metric_name(name, namespace) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, value in snapshot.get("gauges", {}).items():
        metric = metric_name(name, namespace)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(value)}")
    for name, wire in snapshot.get("histograms", {}).items():
        metric = metric_name(name, namespace) + "_seconds"
        hist = Histogram.from_wire(wire)
        lines.append(f"# TYPE {metric} summary")
        for pct, label in _QUANTILES:
            lines.append(
                f'{metric}{{quantile="{label}"}} '
                f"{_fmt(hist.percentile(pct))}"
            )
        lines.append(f"{metric}_sum {_fmt(hist.total)}")
        lines.append(f"{metric}_count {hist.count}")
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    # Prometheus wants plain decimal; repr keeps full precision while
    # rendering integral floats as "2.0" rather than "2e+00".
    return repr(float(value))


def merge_registry_snapshots(snapshots) -> dict:
    """Fold several ``MetricsRegistry.snapshot()`` dicts into one.

    The federated server tier runs one registry per worker process; the
    coordinator merges them so the combined ``--metrics-log`` line (and
    the final stats print) describes the whole tier.  Counters and gauges
    sum by name — for additive gauges (queue depths, connection counts)
    that is the pooled value; replicated gauges like ``db.size`` read as
    ``procs × size`` and callers that care overwrite them from one
    authoritative worker.  Histograms fold with :meth:`Histogram.merge`,
    so percentiles of the merged histogram equal percentiles of the
    pooled samples.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, Histogram] = {}
    sketches: dict[str, dict] = {}
    have_sketches = False
    for snapshot in snapshots:
        if not snapshot:
            continue
        for name, wire in snapshot.get("sketches", {}).items():
            have_sketches = True
            held = sketches.get(name)
            if held is None:
                sketches[name] = wire
                continue
            # Lazy import: obs must stay importable without the guard
            # package in degenerate environments, and guard imports obs.
            from repro.guard.sketch import merge_sketch_wire

            try:
                sketches[name] = merge_sketch_wire(held, wire)
            except ValueError:
                # Geometry mismatch (heterogeneous worker configs): keep
                # the first rather than poisoning the whole merge.
                continue
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, value in snapshot.get("gauges", {}).items():
            gauges[name] = gauges.get(name, 0.0) + float(value)
        for name, wire in snapshot.get("histograms", {}).items():
            histograms.setdefault(name, Histogram()).merge(
                Histogram.from_wire(wire)
            )
    merged = {
        "counters": {name: counters[name] for name in sorted(counters)},
        "gauges": {name: gauges[name] for name in sorted(gauges)},
        "histograms": {name: histograms[name].to_wire()
                       for name in sorted(histograms)},
    }
    if have_sketches:
        merged["sketches"] = {name: sketches[name]
                              for name in sorted(sketches)}
    return merged


class MetricsLogWriter:
    """Background thread appending registry snapshots as JSONL."""

    def __init__(self, registry, path: str, interval: float = 5.0) -> None:
        self._registry = registry
        self._path = path
        self._interval = max(0.05, float(interval))
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        # Failed writes are counted (so a wedged disk shows up in the
        # other exporters) and warned about exactly once — a full disk
        # must not turn the metrics thread into a log flood.
        self._write_errors = registry.counter("obs.log_write_errors")
        self._warned = False

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="metrics-log", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        # Final line so short runs (and clean shutdowns) always leave a
        # complete snapshot behind.
        self._write_line()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._write_line()

    def _write_line(self) -> None:
        record = {"ts": time.time(), **self._registry.snapshot()}
        line = json.dumps(record, separators=(",", ":")) + "\n"
        try:
            with open(self._path, "a", encoding="utf-8") as fh:
                fh.write(line)
        except OSError as exc:
            self._write_errors.add()
            if not self._warned:
                self._warned = True
                log.warning(
                    "metrics log write to %s failed (%s); counting "
                    "further failures on obs.log_write_errors",
                    self._path, exc,
                )


def last_snapshot_line(path: str) -> dict | None:
    """Parse the last JSONL line of a ``--metrics-log`` file, if any.

    Shared by the benchmarks that attach a server-metrics section to
    their artifacts.
    """
    last = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    last = line
    except OSError:
        return None
    if last is None:
        return None
    try:
        return json.loads(last)
    except ValueError:
        return None
