"""Latency and throughput accounting for the client swarm.

The engine calls :meth:`Metrics.record` once per completed operation and
:meth:`Metrics.record_error` once per failed one — every issued request
lands in exactly one of the two, so ``completed + errors`` always equals
the number of operations the scenarios issued (the invariant the swarm
tests assert).

Latencies go into :class:`repro.obs.Histogram` — the same geometric-bucket
histogram (and wire form) the server records its stage timings into.
Throughput is a per-second series of completion counts keyed by whole
seconds since the collector was created.

Each event-loop shard owns a private ``Metrics`` (single-writer, no lock);
:meth:`Metrics.merge` folds shard collectors into one for reporting.

Snapshots also travel between *processes*: the federated swarm's worker
processes serialize theirs with :meth:`MetricsSnapshot.to_wire` and the
coordinator folds them back together with :func:`merge_snapshots`.  The
wire form carries the raw histogram buckets (not just the summary), so a
percentile of the merged histogram equals the percentile of the pooled
samples — federation loses no fidelity over running everything in one
process (a tested invariant).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.histogram import Histogram

@dataclass
class MetricsSnapshot:
    """A merged, read-only view of one or more collectors."""

    histograms: dict[str, Histogram] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)
    series: dict[int, int] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return sum(h.count for h in self.histograms.values())

    @property
    def error_count(self) -> int:
        return sum(self.errors.values())

    def count(self, op: str) -> int:
        histogram = self.histograms.get(op)
        return histogram.count if histogram else 0

    def to_dict(self) -> dict:
        return {
            "completed": self.completed,
            "errors": dict(self.errors),
            "ops": {op: h.summary() for op, h in sorted(self.histograms.items())},
            "throughput_series": {
                str(sec): n for sec, n in sorted(self.series.items())
            },
        }

    def to_wire(self) -> dict:
        """Full-fidelity JSON form (raw buckets) for cross-process merge —
        the federated swarm's worker→coordinator payload."""
        return {
            "histograms": {
                op: h.to_wire() for op, h in sorted(self.histograms.items())
            },
            "errors": dict(self.errors),
            "series": {str(sec): n for sec, n in sorted(self.series.items())},
        }

    @classmethod
    def from_wire(cls, data: dict) -> "MetricsSnapshot":
        return cls(
            histograms={
                op: Histogram.from_wire(h)
                for op, h in data.get("histograms", {}).items()
            },
            errors={op: int(n) for op, n in data.get("errors", {}).items()},
            series={int(sec): int(n)
                    for sec, n in data.get("series", {}).items()},
        )

    def rebase_series(self, zero_second: int) -> None:
        """Shift the throughput series so ``zero_second`` becomes 0 —
        workers rebase onto their release instant so the coordinator can
        merge series from processes with different epochs.  Completions
        from before the new zero (setup traffic) fold into second 0."""
        self.series = _shift_series(self.series, zero_second)


def _shift_series(series: dict[int, int], zero_second: int) -> dict[int, int]:
    shifted: dict[int, int] = {}
    for second, n in series.items():
        key = max(0, second - zero_second)
        shifted[key] = shifted.get(key, 0) + n
    return shifted


def merge_snapshots(snapshots: Iterable[MetricsSnapshot]) -> MetricsSnapshot:
    """Fold snapshots (e.g. one per federated worker) into one.  Histogram
    buckets add, so merged percentiles equal percentiles of the pooled
    samples; error counts and throughput series add second-by-second."""
    merged = MetricsSnapshot()
    for snapshot in snapshots:
        for op, histogram in snapshot.histograms.items():
            into = merged.histograms.get(op)
            if into is None:
                into = merged.histograms[op] = Histogram()
            into.merge(histogram)
        for op, n in snapshot.errors.items():
            merged.errors[op] = merged.errors.get(op, 0) + n
        for second, n in snapshot.series.items():
            merged.series[second] = merged.series.get(second, 0) + n
    return merged


def _stable_copy(source: dict) -> dict:
    """Copy a dict a single writer thread may be inserting into."""
    while True:
        try:
            return dict(source)
        except RuntimeError:  # a key appeared mid-copy; retry
            continue


class Metrics:
    """Single-writer collector: one per event-loop shard."""

    def __init__(self, epoch: float | None = None) -> None:
        #: Second-zero reference for the throughput series; shards created
        #: by one engine share the engine's epoch so their series align.
        self.epoch = time.monotonic() if epoch is None else epoch
        self._histograms: dict[str, Histogram] = {}
        self._errors: dict[str, int] = {}
        self._series: dict[int, int] = {}

    def record(self, op: str, seconds: float, now: float | None = None) -> None:
        histogram = self._histograms.get(op)
        if histogram is None:
            histogram = self._histograms[op] = Histogram()
        histogram.record(seconds)
        second = int((time.monotonic() if now is None else now) - self.epoch)
        self._series[second] = self._series.get(second, 0) + 1

    def record_error(self, op: str) -> None:
        self._errors[op] = self._errors.get(op, 0) + 1

    @staticmethod
    def merge(collectors: Iterable["Metrics"]) -> MetricsSnapshot:
        """Fold collectors into one snapshot.  Safe to call while shard
        threads are still recording (live telemetry): dicts are copied
        with a retry against concurrent key insertion, so the result is a
        consistent-enough point-in-time view."""
        snapshot = MetricsSnapshot()
        for collector in collectors:
            for op, histogram in _stable_copy(collector._histograms).items():
                into = snapshot.histograms.get(op)
                if into is None:
                    into = snapshot.histograms[op] = Histogram()
                into.merge(histogram)
            for op, n in _stable_copy(collector._errors).items():
                snapshot.errors[op] = snapshot.errors.get(op, 0) + n
            for second, n in _stable_copy(collector._series).items():
                snapshot.series[second] = snapshot.series.get(second, 0) + n
        return snapshot
