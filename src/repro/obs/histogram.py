"""The latency histogram: one bucket grid, one value type, one wire form.

:class:`Histogram` counts samples per geometric bucket — ~19% wide, from
1 µs up to ~2 minutes — so recording is O(1), memory is a few hundred
ints regardless of run length, totals are exact and percentiles (±~9 %)
come from a cumulative walk.  The swarm's client-side latencies
(``repro.loadgen.metrics``) and the server's per-stage timings are the
same class on the same grid, so a server-side ``stage.validate`` and a
client-side ``add`` are directly comparable, and everything that crosses
a process boundary — STATS v2, ``--metrics-log`` — is
:meth:`Histogram.to_wire` on one side and :meth:`Histogram.from_wire`
on the other; the swarm pools its per-shard histograms with
:meth:`Histogram.merge`.
Buckets add under ``merge``, so a percentile of the merged histogram
equals the percentile of the pooled samples (a tested invariant).

Two conventions, stated once: ``min`` is ``inf`` in memory while the
histogram is empty (so it folds with ``min()``) and ``0.0`` on the wire
(JSON has no infinity); ``summary()`` reports milliseconds rounded to
1 µs, and ``{"count": 0}`` when empty.

:class:`StageHistogram` is the multi-writer recording half: each thread
owns a private shard (a flat list of ints/floats), so ``record()`` is a
handful of in-place list writes — no locks, no allocation in steady
state — and is safe to call from the event-loop thread.  ``snapshot()``
merges the shards into a :class:`Histogram` with the same
retry-on-resize discipline as :class:`repro.obs.registry.ShardedCounter`.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "MIN_LATENCY",
    "GROWTH",
    "BUCKET_COUNT",
    "bucket_index",
    "bucket_upper_bound",
    "Histogram",
    "StageHistogram",
]

# ~19% geometric buckets: 1us .. ~100s in 108 buckets.  Any change here
# changes the wire form every process of a tier shares — don't.
MIN_LATENCY = 1e-6
GROWTH = 2 ** 0.25
_LOG_GROWTH = math.log(GROWTH)
BUCKET_COUNT = 108


def bucket_index(seconds: float) -> int:
    """Map a latency in seconds to its bucket index."""
    if seconds <= MIN_LATENCY:
        return 0
    index = int(math.log(seconds / MIN_LATENCY) / _LOG_GROWTH) + 1
    return min(index, BUCKET_COUNT - 1)


def bucket_upper_bound(index: int) -> float:
    """Upper latency bound (seconds) covered by bucket ``index``."""
    if index <= 0:
        return MIN_LATENCY
    return MIN_LATENCY * GROWTH ** index


class Histogram:
    """Counts per geometric latency bucket; single-writer (one event-loop
    shard, or a merged read-only view)."""

    __slots__ = ("counts", "count", "total", "min", "max", "exemplars")

    def __init__(self) -> None:
        self.counts = [0] * BUCKET_COUNT
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        # bucket index -> most recent trace id (hex) seen in that bucket.
        self.exemplars: dict[int, str] = {}

    def record(self, seconds: float, exemplar: str | None = None) -> None:
        bucket = bucket_index(seconds)
        self.counts[bucket] += 1
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        if exemplar is not None:
            self.exemplars[bucket] = exemplar

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` in: buckets, count and total add, min/max pool.
        Exemplars are "most recent trace in bucket"; across histograms
        there is no ordering, so the later-merged one wins."""
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.exemplars.update(other.exemplars)

    def percentile(self, pct: float) -> float:
        """Latency at percentile ``pct`` (0..100): the upper bound of the
        bucket holding that sample, clamped to the observed max."""
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(self.count * pct / 100.0))
        seen = 0
        for index, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                return min(bucket_upper_bound(index), self.max)
        return self.max  # pragma: no cover - rank <= count by construction

    def summary(self) -> dict:
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "mean_ms": round(self.total / self.count * 1e3, 3),
            "min_ms": round(self.min * 1e3, 3),
            "max_ms": round(self.max * 1e3, 3),
            "p50_ms": round(self.percentile(50) * 1e3, 3),
            "p95_ms": round(self.percentile(95) * 1e3, 3),
            "p99_ms": round(self.percentile(99) * 1e3, 3),
        }

    def to_wire(self) -> dict:
        """JSON-safe full-fidelity form: sparse bucket counts plus the
        exact totals, so a deserialized histogram merges and reports
        exactly like the original.  ``exemplars`` appears only when any
        were recorded."""
        wire = {
            "buckets": {str(i): n for i, n in enumerate(self.counts) if n},
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max,
        }
        if self.exemplars:
            wire["exemplars"] = {
                str(i): trace_id
                for i, trace_id in sorted(self.exemplars.items())
            }
        return wire

    @classmethod
    def from_wire(cls, data: dict) -> "Histogram":
        """Inverse of :meth:`to_wire`; bucket indices off the grid (a
        peer on a different grid) are dropped rather than raised on."""
        histogram = cls()
        for key, n in data.get("buckets", {}).items():
            index = int(key)
            if 0 <= index < BUCKET_COUNT:
                histogram.counts[index] = int(n)
        histogram.count = int(data.get("count", 0))
        histogram.total = float(data.get("total", 0.0))
        if histogram.count:
            histogram.min = float(data.get("min", 0.0))
        histogram.max = float(data.get("max", 0.0))
        for key, trace_id in data.get("exemplars", {}).items():
            index = int(key)
            if 0 <= index < BUCKET_COUNT:
                histogram.exemplars[index] = str(trace_id)
        return histogram


# StageHistogram shard layout: [count, total, min, max, bucket_0 ..
# bucket_N-1].  A flat list keeps record() to indexed stores with zero
# per-sample allocation.
_COUNT = 0
_TOTAL = 1
_MIN = 2
_MAX = 3
_HDR = 4


class StageHistogram:
    """Thread-sharded latency histogram with allocation-free recording.

    Each recording thread lazily creates a private shard list on first
    use; after that, ``record()`` touches only that list.  The GIL makes
    individual list-element stores atomic, and no thread ever writes
    another thread's shard, so no lock is needed on the hot path.
    ``snapshot()`` may observe a sample's count before its total (or see
    a brand-new shard appear mid-merge — handled by retrying), which is
    the same mild raciness ``ShardedCounter.value()`` accepts.
    """

    __slots__ = ("_shards", "_local", "_exemplars")

    def __init__(self) -> None:
        self._shards: dict[int, list] = {}
        self._local = threading.local()
        # bucket index -> hex trace id of the most recent traced sample
        # landing there.  A single dict-item store per traced sample is
        # GIL-atomic, so last-write-wins without a lock is fine.
        self._exemplars: dict[int, str] = {}

    def _shard(self) -> list:
        try:
            return self._local.shard
        except AttributeError:
            shard = [0, 0.0, math.inf, 0.0] + [0] * BUCKET_COUNT
            self._shards[threading.get_ident()] = shard
            self._local.shard = shard
            return shard

    def record(self, seconds: float, exemplar: str | None = None) -> None:
        shard = self._shard()
        shard[_COUNT] += 1
        shard[_TOTAL] += seconds
        if seconds < shard[_MIN]:
            shard[_MIN] = seconds
        if seconds > shard[_MAX]:
            shard[_MAX] = seconds
        bucket = bucket_index(seconds)
        shard[bucket + _HDR] += 1
        if exemplar is not None:
            self._exemplars[bucket] = exemplar

    def snapshot(self) -> Histogram:
        while True:
            try:
                shards = [list(s) for s in self._shards.values()]
                break
            except RuntimeError:
                # A thread registered a new shard mid-iteration; retry.
                continue
        merged = Histogram()
        counts = merged.counts
        for shard in shards:
            merged.count += shard[_COUNT]
            merged.total += shard[_TOTAL]
            if shard[_MIN] < merged.min:
                merged.min = shard[_MIN]
            if shard[_MAX] > merged.max:
                merged.max = shard[_MAX]
            for i in range(BUCKET_COUNT):
                counts[i] += shard[_HDR + i]
        merged.exemplars = dict(self._exemplars)
        return merged

    def to_wire(self) -> dict:
        return self.snapshot().to_wire()

    def summary(self) -> dict:
        return self.snapshot().summary()
