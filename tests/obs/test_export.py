"""Exporters: Prometheus text rendering and the JSONL metrics log."""

from __future__ import annotations

import json
import time

from repro.obs import (
    MetricsLogWriter,
    MetricsRegistry,
    metric_name,
    render_prometheus,
)


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("adds_accepted").add(42)
    registry.gauge("db.size").set(42.0)
    histogram = registry.histogram("stage.validate")
    for value in (0.001, 0.002, 0.004):
        histogram.record(value)
    return registry


def test_metric_name_mangling():
    assert metric_name("stage.validate") == "communix_stage_validate"
    assert metric_name("loop.select_wait") == "communix_loop_select_wait"
    assert metric_name("weird-name!", namespace="x") == "x_weird_name_"


def test_render_prometheus_shape():
    text = render_prometheus(_populated_registry().snapshot())
    lines = text.splitlines()
    assert text.endswith("\n")
    assert "# TYPE communix_adds_accepted_total counter" in lines
    assert "communix_adds_accepted_total 42" in lines
    assert "# TYPE communix_db_size gauge" in lines
    assert "communix_db_size 42.0" in lines
    assert "# TYPE communix_stage_validate_seconds summary" in lines
    assert "communix_stage_validate_seconds_count 3" in lines
    quantiles = [line for line in lines
                 if line.startswith('communix_stage_validate_seconds{')]
    assert len(quantiles) == 3
    assert any('quantile="0.5"' in line for line in quantiles)
    assert any('quantile="0.99"' in line for line in quantiles)
    total = next(line for line in lines
                 if line.startswith("communix_stage_validate_seconds_sum"))
    assert float(total.split()[1]) > 0.0


def test_render_prometheus_empty_registry():
    assert render_prometheus(MetricsRegistry().snapshot()) == "\n"


def test_prometheus_values_are_parseable_floats():
    text = render_prometheus(_populated_registry().snapshot())
    for line in text.splitlines():
        if line.startswith("#") or not line:
            continue
        float(line.rsplit(" ", 1)[1])  # every sample value parses


def test_metrics_log_writer_appends_and_finalizes(tmp_path):
    path = tmp_path / "metrics.jsonl"
    registry = _populated_registry()
    writer = MetricsLogWriter(registry, str(path), interval=0.05)
    writer.start()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if path.exists() and path.read_text().count("\n") >= 2:
            break
        time.sleep(0.01)
    registry.counter("adds_accepted").add(8)
    writer.stop()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) >= 3  # periodic lines plus the final one
    for record in lines:
        assert "ts" in record
        assert "counters" in record and "histograms" in record
    # The final line reflects the post-stop state of the registry.
    assert lines[-1]["counters"]["adds_accepted"] == 50


def test_metrics_log_writer_stop_without_start(tmp_path):
    path = tmp_path / "metrics.jsonl"
    writer = MetricsLogWriter(MetricsRegistry(), str(path))
    writer.stop()  # no thread; still writes the final line
    assert len(path.read_text().splitlines()) == 1

