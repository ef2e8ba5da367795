"""Collector merging (the histogram itself is tested in
``tests/obs/test_histogram.py``)."""

from repro.loadgen.metrics import Metrics


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
                shard.record("get_page", 0.002 * (i + 1), now=float(i))
            shard.record_error("get_page")
        snapshot = Metrics.merge(shards)
        assert snapshot.count("get_page") == 60
        assert sum(snapshot.series.values()) == 60
        assert snapshot.series == {0: 10, 1: 20, 2: 30}
        assert snapshot.errors == {"get_page": 3}
        histogram = snapshot.histograms["get_page"]
        assert (histogram.min, histogram.max) == (0.002, 0.006)

    def test_to_dict_is_json_shaped(self):
        metrics = Metrics(epoch=0.0)
        metrics.record("add", 0.004, now=0.5)
        payload = Metrics.merge([metrics]).to_dict()
        assert payload["completed"] == 1
        assert payload["ops"]["add"]["count"] == 1
        assert payload["throughput_series"] == {"0": 1}
