"""Trace ids, the trace-context wire codec, and the slow-trace ring.

The codec carries stage stamps across a process boundary; it must
round-trip losslessly or a merged trace would quietly drift from what
the other side measured.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    ALL_STAGES,
    RequestTrace,
    STAGE_DB_APPEND,
    STAGE_HANDLER,
    STAGE_QUEUE_WAIT,
    STAGE_VALIDATE,
    TraceBuffer,
    decode_trace_stages,
    encode_trace_stages,
    format_trace_id,
    mint_trace_id,
)

# Stage names on the wire are arbitrary short UTF-8; exercise well past
# the constants to prove the codec doesn't depend on them.
stage_names = st.text(min_size=1, max_size=32).filter(
    lambda s: len(s.encode("utf-8")) <= 255
)
seconds = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)
stage_maps = st.dictionaries(stage_names, seconds, max_size=20)


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

    def test_preseeded_id_is_kept(self):
        # A trace continued from another process keeps the caller's id.
        trace = RequestTrace(op="add", trace_id=0xABCD)
        assert trace.trace_id == 0xABCD


class TestTraceStageCodec:
    @settings(max_examples=200)
    @given(stage_maps)
    def test_round_trip_is_lossless(self, stages):
        decoded = decode_trace_stages(encode_trace_stages(stages))
        assert set(decoded) == set(stages)
        for name, value in stages.items():
            # Exact f64 equality, not approx: the wire form is the bit
            # pattern, so nothing may be lost.
            assert decoded[name] == value or (
                math.isnan(value) and math.isnan(decoded[name])
            )

    def test_empty_stages_encode_to_one_byte(self):
        assert encode_trace_stages({}) == b"\x00"
        assert decode_trace_stages(b"\x00") == {}
        assert decode_trace_stages(b"") == {}

    def test_real_stage_constants_round_trip(self):
        stages = {stage: float(i) / 7.0 for i, stage in enumerate(ALL_STAGES)}
        assert decode_trace_stages(encode_trace_stages(stages)) == stages

    def test_overlong_name_rejected(self):
        with pytest.raises(ValueError):
            encode_trace_stages({"x" * 256: 1.0})

    def test_merge_stages_accumulates(self):
        trace = RequestTrace(op="add")
        trace.stamp(STAGE_VALIDATE, 0.25)
        trace.merge_stages({STAGE_VALIDATE: 0.5, STAGE_DB_APPEND: 1.0})
        assert trace.stages[STAGE_VALIDATE] == pytest.approx(0.75)
        assert trace.stages[STAGE_DB_APPEND] == pytest.approx(1.0)


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

    def test_partial_trace_ranked_by_stage_sum(self):
        # A trace merged in without a handler stamp must still outrank
        # a faster complete trace.
        buffer = TraceBuffer(capacity=1)
        buffer.note(_trace(0.01))
        partial = RequestTrace(op="add")
        partial.stamp(STAGE_VALIDATE, 0.2)
        partial.stamp(STAGE_DB_APPEND, 0.3)
        buffer.note(partial)
        (entry,) = buffer.snapshot()
        assert entry["trace_id"] == partial.hex_id()
        assert entry["total_ms"] == pytest.approx(500.0)

    def test_stages_reported_in_pipeline_order_ms(self):
        buffer = TraceBuffer()
        trace = RequestTrace(op="add")
        trace.stamp(STAGE_HANDLER, 0.002)
        trace.stamp(STAGE_QUEUE_WAIT, 0.001)
        buffer.note(trace)
        (entry,) = buffer.snapshot()
        assert list(entry["stages_ms"]) == [STAGE_QUEUE_WAIT, STAGE_HANDLER]
        assert entry["stages_ms"][STAGE_QUEUE_WAIT] == pytest.approx(1.0)
