"""The one latency histogram: bucket math, Histogram, StageHistogram."""

from __future__ import annotations

import json
import math
import threading

import pytest
from hypothesis import given, strategies as st

from repro.obs.histogram import (
    BUCKET_COUNT,
    GROWTH,
    MIN_LATENCY,
    Histogram,
    StageHistogram,
    bucket_index,
    bucket_upper_bound,
)

SAMPLES = [0.0000005, 0.000001, 0.00025, 0.0013, 0.0013, 0.047, 0.9, 2.5]


def test_bucket_index_monotonic():
    last = -1
    value = MIN_LATENCY / 2
    while value < 200.0:
        index = bucket_index(value)
        assert 0 <= index < BUCKET_COUNT
        assert index >= last
        last = index
        value *= 1.07


def test_bucket_bounds_cover_their_index():
    for index in range(1, BUCKET_COUNT - 1):
        upper = bucket_upper_bound(index)
        # A value just under the bound maps into the bucket (or an
        # adjacent one at the float boundary); the bound itself never
        # maps *below* its bucket.
        assert bucket_index(upper * 0.999) <= index
        assert bucket_index(upper * 1.001) >= index


def test_bucket_zero_and_cap():
    assert bucket_index(0.0) == 0
    assert bucket_index(MIN_LATENCY) == 0
    assert bucket_index(1e9) == BUCKET_COUNT - 1
    assert bucket_upper_bound(0) == MIN_LATENCY
    assert bucket_upper_bound(3) == pytest.approx(MIN_LATENCY * GROWTH ** 3)


def test_record_and_snapshot_totals():
    histogram = StageHistogram()
    for value in SAMPLES:
        histogram.record(value)
    snap = histogram.snapshot()
    assert snap.count == len(SAMPLES)
    assert snap.total == pytest.approx(sum(SAMPLES))
    assert snap.min == min(SAMPLES)
    assert snap.max == max(SAMPLES)
    assert sum(snap.counts) == len(SAMPLES)


def test_percentiles_clamped_to_observed_max():
    histogram = StageHistogram()
    for value in SAMPLES:
        histogram.record(value)
    snap = histogram.snapshot()
    assert snap.percentile(50.0) <= snap.percentile(99.0)
    assert snap.percentile(100.0) == snap.max
    # The p50 bound brackets the true median within one bucket.
    median = sorted(SAMPLES)[len(SAMPLES) // 2 - 1]
    assert snap.percentile(50.0) >= median
    assert snap.percentile(50.0) <= median * GROWTH * 1.001


def test_empty_snapshot_and_summary():
    snap = StageHistogram().snapshot()
    assert snap.count == 0
    assert snap.min == math.inf  # folds with min(); 0.0 on the wire
    assert snap.percentile(99.0) == 0.0
    assert StageHistogram().summary() == {"count": 0}
    assert StageHistogram().to_wire() == {
        "buckets": {}, "count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
    }


def test_stage_snapshot_equals_direct_recording():
    """The sharded recorder and a plain Histogram fed the same samples
    are the same value: one grid, one wire form."""
    stage, direct = StageHistogram(), Histogram()
    for value in SAMPLES:
        stage.record(value)
        direct.record(value)
    assert stage.to_wire() == direct.to_wire()
    assert stage.summary() == direct.summary()


class TestHistogram:
    def test_totals_are_exact(self):
        histogram = Histogram()
        for i in range(1, 1001):
            histogram.record(i / 1000.0)
        assert histogram.count == 1000
        assert histogram.total == pytest.approx(sum(range(1, 1001)) / 1000.0)

    def test_percentiles_within_bucket_resolution(self):
        histogram = Histogram()
        for i in range(1, 1001):
            histogram.record(i / 1000.0)  # 1ms .. 1s uniform
        # Geometric buckets grow by 2**0.25 (~19%); the reported value is
        # the bucket's upper bound, so it is within one growth factor.
        assert 0.5 <= histogram.percentile(50) <= 0.5 * GROWTH
        assert 0.95 <= histogram.percentile(95) <= 0.95 * GROWTH
        assert histogram.percentile(99) <= histogram.max
        assert histogram.percentile(100) == histogram.max

    def test_summary_is_rounded_milliseconds(self):
        histogram = Histogram()
        histogram.record(0.25)
        summary = histogram.summary()
        assert summary["count"] == 1
        assert summary["mean_ms"] == summary["min_ms"] == 250.0
        assert summary["p50_ms"] == summary["p99_ms"] == summary["max_ms"]

    def test_extremes_clamp_to_terminal_buckets(self):
        histogram = Histogram()
        histogram.record(0.0)       # below resolution
        histogram.record(10_000.0)  # beyond the last bucket
        assert histogram.count == 2
        assert histogram.percentile(99) <= histogram.max

    def test_exemplars_ride_the_wire_and_later_merge_wins(self):
        left, right = Histogram(), Histogram()
        left.record(0.5, exemplar="aaaa")
        left.record(0.001, exemplar="early")
        right.record(0.5, exemplar="bbbb")
        assert "exemplars" not in Histogram().to_wire()
        merged = Histogram.from_wire(left.to_wire())
        merged.merge(Histogram.from_wire(right.to_wire()))
        assert sorted(merged.exemplars.values()) == ["bbbb", "early"]

    def test_from_wire_drops_buckets_off_the_grid(self):
        wire = {"buckets": {"3": 2, "9999": 7, "-1": 1}, "count": 2,
                "total": 0.1, "min": 0.01, "max": 0.09}
        assert sum(Histogram.from_wire(wire).counts) == 2


_latencies = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)
_workers = st.lists(st.lists(_latencies, max_size=40), min_size=1, max_size=5)


def _recorded(samples) -> Histogram:
    histogram = Histogram()
    for index, sample in enumerate(samples):
        histogram.record(sample, f"{index:016x}" if index % 3 == 0 else None)
    return histogram


def _over_the_wire(histogram: Histogram) -> Histogram:
    return Histogram.from_wire(json.loads(json.dumps(histogram.to_wire())))


@given(st.lists(_latencies, max_size=80))
def test_wire_round_trip_is_identity(samples):
    histogram = _recorded(samples)
    clone = _over_the_wire(histogram)
    for field in Histogram.__slots__:
        assert getattr(clone, field) == getattr(histogram, field), field
    assert clone.to_wire() == histogram.to_wire()


@given(_workers)
def test_merged_workers_report_the_pooled_percentiles(workers):
    """The federation invariant, for the swarm and the server tier alike:
    merging per-worker histograms (after a wire hop, empty workers
    included) gives exactly the percentiles of recording every sample
    into one histogram."""
    pooled = _recorded([s for samples in workers for s in samples])
    merged = Histogram()
    for samples in workers:
        merged.merge(_over_the_wire(_recorded(samples)))
    assert merged.counts == pooled.counts
    assert merged.count == pooled.count
    assert merged.total == pytest.approx(pooled.total)
    assert (merged.min, merged.max) == (pooled.min, pooled.max)
    for pct in (0, 50, 90, 95, 99, 99.9, 100):
        assert merged.percentile(pct) == pooled.percentile(pct)


def test_concurrent_recording_loses_nothing():
    """Hammer one histogram from many threads while snapshotting; the
    final merge must account for every sample exactly once."""
    histogram = StageHistogram()
    threads = 8
    per_thread = 20_000
    start = threading.Barrier(threads + 1)

    def worker(seed: int) -> None:
        start.wait()
        value = MIN_LATENCY * (seed + 1)
        for _ in range(per_thread):
            histogram.record(value)

    pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    start.wait()
    # Concurrent snapshots must never raise and never see impossible
    # state (count below zero, NaN totals).
    for _ in range(50):
        snap = histogram.snapshot()
        assert 0 <= snap.count <= threads * per_thread
        assert not math.isnan(snap.total)
    for thread in pool:
        thread.join()
    final = histogram.snapshot()
    assert final.count == threads * per_thread
    assert sum(final.counts) == threads * per_thread


def test_snapshot_retries_on_new_shard_mid_merge():
    """A RuntimeError from the shard dict (thread registering a shard
    mid-iteration) is retried, not propagated."""
    histogram = StageHistogram()
    histogram.record(0.001)
    real_shards = histogram._shards

    class FlakyShards:
        def __init__(self) -> None:
            self.failures = 2

        def values(self):
            if self.failures:
                self.failures -= 1
                raise RuntimeError("dictionary changed size during iteration")
            return real_shards.values()

    flaky = FlakyShards()
    object.__setattr__(histogram, "_shards", flaky)
    try:
        snap = histogram.snapshot()
    finally:
        object.__setattr__(histogram, "_shards", real_shards)
    assert flaky.failures == 0
    assert snap.count == 1
