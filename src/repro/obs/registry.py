"""Process-wide registry of named counters, gauges, and stage histograms.

The registry is the single rendezvous point between the recording side
(transport loop, worker pool, validator, WAL) and the exporting side
(STATS v2, the Prometheus admin endpoint, the JSONL metrics log).  All
instruments are get-or-create by dotted name — ``stage.validate``,
``loop.select_wait``, ``net.slow_requests`` — and creation is the only
locked operation; recording into an instrument is lock-free.

Two registry flavours share one interface:

* :class:`MetricsRegistry` — the real thing;
* :class:`NullRegistry` / :data:`NULL_REGISTRY` — every instrument is a
  shared no-op, ``enabled`` is ``False`` so call sites can skip even the
  ``perf_counter()`` reads.  ``--no-metrics`` swaps this in, and
  ``bench/``'s ``obs.cost_pct`` prices the real registry against it.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.obs.histogram import StageHistogram

__all__ = [
    "ShardedCounter",
    "Gauge",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
]


class ShardedCounter:
    """Lock-free thread-sharded counter (GIL-atomic per-shard adds).

    Each thread bumps a private single-element list; readers sum the
    shards, retrying if a brand-new shard appears mid-iteration.  Moved
    here from ``repro.server.server`` so every layer can share the
    idiom; the server re-exports it unchanged.
    """

    __slots__ = ("_shards", "_local")

    def __init__(self) -> None:
        self._shards: dict[int, list[int]] = {}
        self._local = threading.local()

    def add(self, amount: int = 1) -> None:
        try:
            cell = self._local.cell
        except AttributeError:
            cell = [0]
            self._shards[threading.get_ident()] = cell
            self._local.cell = cell
        cell[0] += amount

    def value(self) -> int:
        while True:
            try:
                return sum(cell[0] for cell in self._shards.values())
            except RuntimeError:
                # A thread registered a new shard mid-sum; retry.
                continue


class Gauge:
    """A last-write-wins point-in-time value (GIL-atomic set/read)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value: float = 0.0

    def set(self, value: float) -> None:
        self._value = value

    def value(self) -> float:
        return self._value


class _NullCounter:
    __slots__ = ()

    def add(self, amount: int = 1) -> None:
        pass

    def value(self) -> int:
        return 0


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def value(self) -> float:
        return 0.0


class _NullHistogram:
    __slots__ = ()

    def record(self, seconds: float, exemplar: str | None = None) -> None:
        pass

    def to_wire(self) -> dict:
        return {"buckets": {}, "count": 0, "total": 0.0, "min": 0.0, "max": 0.0}

    def summary(self) -> dict:
        return {"count": 0}


class MetricsRegistry:
    """Named instruments, get-or-create, with callable derived metrics.

    ``register_counter``/``register_gauge`` attach read-time callables
    for values another subsystem already maintains (the server's v1
    ``ServerStats`` counters, cache hit totals, pool occupancy) so the
    exporters see one coherent namespace without double-counting on the
    hot path.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, ShardedCounter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, StageHistogram] = {}
        self._derived_counters: dict[str, Callable[[], int]] = {}
        self._derived_gauges: dict[str, Callable[[], float]] = {}

    def counter(self, name: str) -> ShardedCounter:
        try:
            return self._counters[name]
        except KeyError:
            with self._lock:
                return self._counters.setdefault(name, ShardedCounter())

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            with self._lock:
                return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> StageHistogram:
        try:
            return self._histograms[name]
        except KeyError:
            with self._lock:
                return self._histograms.setdefault(name, StageHistogram())

    def register_counter(self, name: str, fn: Callable[[], int]) -> None:
        with self._lock:
            self._derived_counters[name] = fn

    def register_gauge(self, name: str, fn: Callable[[], float]) -> None:
        with self._lock:
            self._derived_gauges[name] = fn

    def snapshot(self) -> dict:
        """One coherent dict of every instrument, ready for JSON.

        Derived callables that raise (e.g. a component mid-shutdown) are
        skipped rather than poisoning the whole export.
        """
        counters: dict[str, int] = {}
        for name, counter in sorted(self._counters.items()):
            counters[name] = counter.value()
        for name, fn in sorted(self._derived_counters.items()):
            try:
                counters[name] = int(fn())
            except Exception:
                continue
        gauges: dict[str, float] = {}
        for name, gauge in sorted(self._gauges.items()):
            gauges[name] = gauge.value()
        for name, fn in sorted(self._derived_gauges.items()):
            try:
                gauges[name] = float(fn())
            except Exception:
                continue
        histograms = {
            name: hist.to_wire()
            for name, hist in sorted(self._histograms.items())
        }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


class NullRegistry:
    """No-op twin of :class:`MetricsRegistry` (``--no-metrics``)."""

    enabled = False

    _counter = _NullCounter()
    _gauge = _NullGauge()
    _histogram = _NullHistogram()

    def counter(self, name: str) -> _NullCounter:
        return self._counter

    def gauge(self, name: str) -> _NullGauge:
        return self._gauge

    def histogram(self, name: str) -> _NullHistogram:
        return self._histogram

    def register_counter(self, name: str, fn: Callable[[], int]) -> None:
        pass

    def register_gauge(self, name: str, fn: Callable[[], float]) -> None:
        pass

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_REGISTRY = NullRegistry()
