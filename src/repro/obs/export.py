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

__all__ = ["render_prometheus", "MetricsLogWriter"]

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
