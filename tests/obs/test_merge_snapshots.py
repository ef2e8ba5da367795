"""Merging per-worker registry snapshots must equal pooled recording.

The federation coordinator folds one ``MetricsRegistry.snapshot()`` per
worker process into a single tier-wide snapshot; any divergence from
"record everything into one registry" would make the merged metrics lie.
"""

import random

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    merge_registry_snapshots,
)


def _record(registry, samples, adds):
    histogram = registry.histogram("stage.validate")
    for sample in samples:
        histogram.record(sample)
    registry.counter("net.slow_requests").add(adds)
    registry.gauge("loop.queue_depth").set(adds)


class TestMergeRegistrySnapshots:
    def test_merged_equals_pooled(self):
        rng = random.Random(7)
        shares = [[rng.uniform(1e-6, 0.25) for _ in range(50)]
                  for _ in range(3)]
        workers = [MetricsRegistry() for _ in range(3)]
        pooled = MetricsRegistry()
        for worker, samples in zip(workers, shares):
            _record(worker, samples, len(samples))
        _record(pooled, [s for share in shares for s in share],
                sum(len(share) for share in shares))
        merged = merge_registry_snapshots(w.snapshot() for w in workers)
        expected = pooled.snapshot()
        assert merged["counters"] == expected["counters"]
        assert merged["gauges"] == expected["gauges"]
        merged_hist = merged["histograms"]["stage.validate"]
        expected_hist = expected["histograms"]["stage.validate"]
        assert merged_hist["buckets"] == expected_hist["buckets"]
        assert merged_hist["count"] == expected_hist["count"]
        assert merged_hist["total"] == pytest.approx(expected_hist["total"])
        assert merged_hist["min"] == expected_hist["min"]
        assert merged_hist["max"] == expected_hist["max"]
        # Percentiles of the merged histogram are percentiles of the pool.
        assert (Histogram.from_wire(merged_hist).percentile(95)
                == Histogram.from_wire(expected_hist).percentile(95))

    def test_empty_and_missing_snapshots_are_ignored(self):
        registry = MetricsRegistry()
        _record(registry, [0.01, 0.02], 2)
        merged = merge_registry_snapshots(
            [registry.snapshot(), {}, None,
             {"counters": {}, "gauges": {}, "histograms": {}}]
        )
        assert merged["counters"] == {"net.slow_requests": 2}
        assert merged["histograms"]["stage.validate"]["count"] == 2

    def test_disjoint_names_union(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("a").add(1)
        right.counter("b").add(2)
        right.histogram("stage.flush").record(0.001)
        merged = merge_registry_snapshots([left.snapshot(), right.snapshot()])
        assert merged["counters"] == {"a": 1, "b": 2}
        assert list(merged["histograms"]) == ["stage.flush"]

    def test_all_empty_inputs_yield_empty_sections(self):
        merged = merge_registry_snapshots([None, {}, {}])
        assert merged == {"counters": {}, "gauges": {}, "histograms": {}}
        assert "sketches" not in merged

    def test_sketch_geometry_mismatch_keeps_first(self):
        from repro.guard.sketch import CountMinSketch

        wide, narrow = CountMinSketch(64, 4), CountMinSketch(32, 4)
        wide.update("uid-1", 3)
        narrow.update("uid-1", 5)
        merged = merge_registry_snapshots([
            {"sketches": {"guard.uid": wide.to_wire()}},
            {"sketches": {"guard.uid": narrow.to_wire()}},
        ])
        # Mismatched geometry cannot be merged; the first wire survives
        # untouched rather than poisoning the whole snapshot merge.
        assert merged["sketches"]["guard.uid"] == wide.to_wire()

    def test_sketch_matching_geometry_merges_totals(self):
        from repro.guard.sketch import CountMinSketch

        a, b = CountMinSketch(64, 4), CountMinSketch(64, 4)
        a.update("uid-1", 3)
        b.update("uid-1", 5)
        merged = merge_registry_snapshots([
            {"sketches": {"guard.uid": a.to_wire()}},
            {"sketches": {"guard.uid": b.to_wire()}},
        ])
        assert merged["sketches"]["guard.uid"]["total"] == 8
