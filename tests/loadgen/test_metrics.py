"""Collector merging and cross-process snapshots (the histogram itself is
tested in ``tests/obs/test_histogram.py``)."""

import json

from repro.loadgen.metrics import (
    Metrics,
    MetricsSnapshot,
    merge_snapshots,
)


class TestMetrics:
    def test_every_op_lands_in_exactly_one_place(self):
        metrics = Metrics(epoch=0.0)
        for _ in range(5):
            metrics.record("add", 0.01, now=1.0)
        metrics.record_error("add")
        snapshot = Metrics.merge([metrics])
        assert snapshot.count("add") == 5
        assert snapshot.errors == {"add": 1}
        assert snapshot.completed == 5
        assert snapshot.error_count == 1

    def test_merge_across_shards(self):
        shards = [Metrics(epoch=0.0) for _ in range(3)]
        for i, shard in enumerate(shards):
            for _ in range(10 * (i + 1)):
                shard.record("get_page", 0.002, now=float(i))
        snapshot = Metrics.merge(shards)
        assert snapshot.count("get_page") == 60
        assert sum(snapshot.series.values()) == 60
        assert snapshot.series == {0: 10, 1: 20, 2: 30}

    def test_to_dict_is_json_shaped(self):
        metrics = Metrics(epoch=0.0)
        metrics.record("add", 0.004, now=0.5)
        payload = Metrics.merge([metrics]).to_dict()
        assert payload["completed"] == 1
        assert payload["ops"]["add"]["count"] == 1
        assert payload["throughput_series"] == {"0": 1}


class TestWireSnapshots:
    """The federation payload: full-fidelity histogram transfer + merge."""

    def _snapshot(self, samples, *, op="add", errors=0, second=0):
        metrics = Metrics(epoch=0.0)
        for sample in samples:
            metrics.record(op, sample, now=float(second))
        for _ in range(errors):
            metrics.record_error(op)
        return Metrics.merge([metrics])

    def test_snapshot_wire_round_trip(self):
        snapshot = self._snapshot([0.01, 0.02, 0.03], errors=2, second=4)
        clone = MetricsSnapshot.from_wire(
            json.loads(json.dumps(snapshot.to_wire()))
        )
        assert clone.completed == 3
        assert clone.errors == {"add": 2}
        assert clone.series == {4: 3}
        assert clone.histograms["add"].summary() == \
            snapshot.histograms["add"].summary()

    def test_merge_snapshots_pools_histograms_over_the_wire(self):
        """Federation plumbing: per-worker snapshots cross the wire and
        fold into one histogram per op (that the fold preserves
        percentiles is ``Histogram.merge``'s property test)."""
        merged = merge_snapshots(
            MetricsSnapshot.from_wire(self._snapshot(samples).to_wire())
            for samples in ([0.001, 0.002], [0.5], [0.01, 0.02, 0.03])
        )
        histogram = merged.histograms["add"]
        assert histogram.count == 6
        assert (histogram.min, histogram.max) == (0.001, 0.5)
        assert histogram.percentile(100) == 0.5

    def test_merge_snapshots_sums_series_and_errors(self):
        a = self._snapshot([0.01] * 3, second=0, errors=1)
        b = self._snapshot([0.01] * 5, second=0)
        c = self._snapshot([0.01] * 2, second=2)
        merged = merge_snapshots([a, b, c])
        assert merged.series == {0: 8, 2: 2}
        assert merged.errors == {"add": 1}
        assert merged.completed == 10

    def test_rebase_series_shifts_to_release_zero(self):
        snapshot = self._snapshot([0.01], second=7)
        snapshot.series = {5: 2, 7: 3, 9: 1}
        snapshot.rebase_series(7)
        # Pre-release completions fold into second 0.
        assert snapshot.series == {0: 5, 2: 1}
