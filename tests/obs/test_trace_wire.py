"""Trace ids and the slow-trace ring."""

import pytest

from repro.obs import (
    RequestTrace,
    STAGE_HANDLER,
    STAGE_QUEUE_WAIT,
    TraceBuffer,
    format_trace_id,
    mint_trace_id,
)


class TestTraceIds:
    def test_mint_is_nonzero_and_unique(self):
        ids = {mint_trace_id() for _ in range(1000)}
        assert len(ids) == 1000
        assert 0 not in ids

    def test_format_is_16_hex_digits(self):
        assert format_trace_id(0x1) == "0" * 15 + "1"
        rendered = format_trace_id(mint_trace_id())
        assert len(rendered) == 16
        int(rendered, 16)  # parses back

    def test_trace_minted_on_construction(self):
        trace = RequestTrace(op="add")
        assert trace.trace_id != 0
        assert trace.hex_id() == format_trace_id(trace.trace_id)


def _trace(total_s, op="add"):
    trace = RequestTrace(op=op)
    trace.stamp(STAGE_HANDLER, total_s)
    return trace


class TestTraceBuffer:
    def test_retains_slowest_and_orders_descending(self):
        buffer = TraceBuffer(capacity=3)
        for total in (0.05, 0.3, 0.01, 0.2, 0.4):
            buffer.note(_trace(total))
        totals = [entry["total_ms"] for entry in buffer.snapshot()]
        assert totals == pytest.approx([400.0, 300.0, 200.0])

    def test_find_by_hex_id(self):
        buffer = TraceBuffer(capacity=4)
        trace = _trace(0.1)
        buffer.note(trace)
        found = buffer.find(trace.hex_id())
        assert found is not None
        assert found["trace_id"] == trace.hex_id()
        assert buffer.find("0" * 16) is None

    def test_empty_trace_ignored(self):
        buffer = TraceBuffer(capacity=2)
        buffer.note(RequestTrace(op="noop"))
        assert len(buffer) == 0

    def test_stages_reported_in_pipeline_order_ms(self):
        buffer = TraceBuffer()
        trace = RequestTrace(op="add")
        trace.stamp(STAGE_HANDLER, 0.002)
        trace.stamp(STAGE_QUEUE_WAIT, 0.001)
        buffer.note(trace)
        (entry,) = buffer.snapshot()
        assert list(entry["stages_ms"]) == [STAGE_QUEUE_WAIT, STAGE_HANDLER]
        assert entry["stages_ms"][STAGE_QUEUE_WAIT] == pytest.approx(1.0)
