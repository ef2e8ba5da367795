"""Per-stage tracing: RequestTrace, the slow-request log, WAL fsync timing."""

import logging
import random
import re
import time

import pytest

from repro.client.endpoints import SocketEndpoint
from repro.crypto.userid import UserIdAuthority
from repro.obs import (
    ALL_STAGES,
    STAGE_CRYPTO,
    STAGE_VALIDATE,
    STAGE_WAL_FSYNC,
    RequestTrace,
)
from repro.server.server import CommunixServer, ServerConfig
from repro.server.transport import ServerTransport
from repro.util.clock import ManualClock


class TestRequestTrace:
    def test_stamps_accumulate(self):
        trace = RequestTrace()
        trace.stamp(STAGE_VALIDATE, 0.001)
        trace.stamp(STAGE_VALIDATE, 0.002)
        assert trace.stages[STAGE_VALIDATE] == pytest.approx(0.003)

    def test_breakdown_follows_pipeline_order(self):
        trace = RequestTrace()
        # Stamp in reverse; breakdown must render in pipeline order.
        for stage in reversed(ALL_STAGES):
            trace.stamp(stage, 0.001)
        rendered = trace.breakdown()
        positions = [rendered.index(f"{stage}=") for stage in ALL_STAGES]
        assert positions == sorted(positions)

    def test_breakdown_skips_untouched_stages(self):
        trace = RequestTrace()
        trace.stamp(STAGE_VALIDATE, 0.0015)
        rendered = trace.breakdown()
        assert "validate=1.50ms" in rendered
        assert "crypto" not in rendered


class TestServerSideTracing:
    def test_process_add_stamps_validate_and_crypto(self, shared_factory):
        server = CommunixServer(
            authority=UserIdAuthority(rng=random.Random(3)),
            clock=ManualClock(start=1_000_000.0),
        )
        token = server.issue_user_token()
        trace = RequestTrace()
        outcome = server.process_add(shared_factory.make_valid().to_bytes(),
                                     token, trace=trace)
        assert outcome.accepted
        assert trace.stages[STAGE_VALIDATE] > 0.0
        # Cache-cold token: the crypto sub-stage was stamped too, and it
        # is contained within validate.
        assert 0.0 < trace.stages[STAGE_CRYPTO] <= trace.stages[STAGE_VALIDATE]
        # Cache-warm repeat: no new crypto stamp.
        trace2 = RequestTrace()
        server.process_add(shared_factory.make_valid().to_bytes(), token,
                           trace=trace2)
        assert STAGE_CRYPTO not in trace2.stages

    def test_durable_add_stamps_wal_fsync(self, shared_factory, tmp_path):
        server = CommunixServer(
            config=ServerConfig(data_dir=str(tmp_path), fsync_policy="always"),
            authority=UserIdAuthority(rng=random.Random(3)),
            clock=ManualClock(start=1_000_000.0),
        )
        try:
            trace = RequestTrace()
            outcome = server.process_add(
                shared_factory.make_valid().to_bytes(),
                server.issue_user_token(), trace=trace,
            )
            assert outcome.accepted
            assert trace.stages[STAGE_WAL_FSYNC] > 0.0
            wire = server.metrics.snapshot()["histograms"]["stage.wal_fsync"]
            assert wire["count"] == 1
        finally:
            server.close()

    def test_disabled_metrics_still_trace(self, shared_factory):
        # --no-metrics with --slow-request-ms: no histograms, but a trace
        # handed in is still stamped (the slow log keeps working).
        server = CommunixServer(
            config=ServerConfig(metrics_enabled=False),
            authority=UserIdAuthority(rng=random.Random(3)),
        )
        trace = RequestTrace()
        outcome = server.process_add(shared_factory.make_valid().to_bytes(),
                                     server.issue_user_token(), trace=trace)
        assert outcome.accepted
        assert trace.stages[STAGE_VALIDATE] > 0.0
        assert server.metrics.snapshot()["histograms"] == {}


class TestSlowRequestLog:
    @pytest.fixture
    def slow_server(self):
        server = CommunixServer(
            config=ServerConfig(slow_request_ms=0.0001),
            authority=UserIdAuthority(rng=random.Random(11)),
            clock=ManualClock(start=1_000_000.0),
        )
        transport = ServerTransport(server)
        transport.start()
        url = transport.bound_endpoints[0].url()
        endpoint = SocketEndpoint(url)
        yield server, endpoint
        endpoint.close()
        transport.stop()

    def test_slow_requests_logged_with_breakdown(self, slow_server,
                                                 shared_factory, caplog):
        server, endpoint = slow_server
        with caplog.at_level(logging.WARNING, logger="repro.server.transport"):
            token = endpoint.issue_token()
            assert endpoint.add(shared_factory.make_valid().to_bytes(), token)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if any("slow request" in r.message for r in caplog.records):
                    break
                time.sleep(0.01)
        slow = [r for r in caplog.records if "slow request" in r.message]
        assert slow, "0.0001ms threshold must flag every request"
        add_lines = [r.message for r in slow if "op=ADD" in r.message]
        assert add_lines
        assert "validate=" in add_lines[0]
        assert "total=" in add_lines[0]
        assert server.metrics.snapshot()["counters"]["net.slow_requests"] >= 1
        # Every slow line carries the request's trace id, and that id
        # resolves in the server's slow-trace ring (the /traces source).
        match = re.search(r"trace=([0-9a-f]{16})", add_lines[0])
        assert match, add_lines[0]
        found = server.traces.find(match.group(1))
        assert found is not None
        assert found["op"] == "ADD"
        assert "validate" in found["stages_ms"]

    def test_threshold_zero_never_logs(self, shared_factory, caplog):
        server = CommunixServer(
            authority=UserIdAuthority(rng=random.Random(11)),
            clock=ManualClock(start=1_000_000.0),
        )
        transport = ServerTransport(server)
        transport.start()
        url = transport.bound_endpoints[0].url()
        endpoint = SocketEndpoint(url)
        try:
            with caplog.at_level(logging.WARNING,
                                 logger="repro.server.transport"):
                token = endpoint.issue_token()
                assert endpoint.add(shared_factory.make_valid().to_bytes(),
                                    token)
                endpoint.stats()
            assert not [r for r in caplog.records
                        if "slow request" in r.message]
        finally:
            endpoint.close()
            transport.stop()


class TestLoopProbes:
    def test_loop_and_flush_instruments_populate(self, shared_factory):
        server = CommunixServer(
            authority=UserIdAuthority(rng=random.Random(13)),
            clock=ManualClock(start=1_000_000.0),
        )
        transport = ServerTransport(server)
        transport.start()
        url = transport.bound_endpoints[0].url()
        endpoint = SocketEndpoint(url)
        try:
            for _ in range(3):
                token = endpoint.issue_token()
                assert endpoint.add(shared_factory.make_valid().to_bytes(),
                                    token)
            snap = server.metrics.snapshot()
        finally:
            endpoint.close()
            transport.stop()
        histograms = snap["histograms"]
        assert histograms["loop.select_wait"]["count"] > 0
        assert histograms["loop.lag"]["count"] > 0
        assert histograms["stage.flush"]["count"] >= 1
        assert histograms["stage.queue_wait"]["count"] >= 1
        assert snap["counters"]["loop.iterations"] > 0
        assert snap["counters"]["net.accepts"] == 1
        gauges = snap["gauges"]
        for name in ("net.connections", "workers.queue_depth",
                     "workers.queue_time", "bufpool.allocated", "db.size"):
            assert name in gauges
        # FD budget gauges come from /proc + RLIMIT_NOFILE; both must be
        # live values, not placeholders.
        assert gauges["proc.fd_open"] > 0
        assert gauges["proc.fd_limit"] > 0

    def test_event_loop_health_tick_records_drift(self, shared_factory):
        server = CommunixServer(
            authority=UserIdAuthority(rng=random.Random(13)),
            clock=ManualClock(start=1_000_000.0),
        )
        transport = ServerTransport(server)
        transport.start()
        url = transport.bound_endpoints[0].url()
        endpoint = SocketEndpoint(url)
        try:
            endpoint.stats()
            # The health tick fires every 0.25 s of loop wall time;
            # wait out one tick and poke the loop again.
            deadline = time.monotonic() + 5.0
            drift = None
            while time.monotonic() < deadline:
                time.sleep(0.1)
                endpoint.stats()
                snap = server.metrics.snapshot()
                drift = snap["histograms"].get("loop.timer_drift")
                if drift is not None and drift["count"] > 0:
                    break
            assert drift is not None and drift["count"] > 0
            # An idle loop never drifts by the 100 ms stall threshold.
            assert snap["counters"].get("loop.stalls", 0) == 0
        finally:
            endpoint.close()
            transport.stop()

    def test_stage_histograms_carry_trace_exemplars(self, shared_factory):
        server = CommunixServer(
            authority=UserIdAuthority(rng=random.Random(13)),
            clock=ManualClock(start=1_000_000.0),
        )
        transport = ServerTransport(server)
        transport.start()
        url = transport.bound_endpoints[0].url()
        endpoint = SocketEndpoint(url)
        try:
            token = endpoint.issue_token()
            assert endpoint.add(shared_factory.make_valid().to_bytes(), token)
            snap = server.metrics.snapshot()
        finally:
            endpoint.close()
            transport.stop()
        wire = snap["histograms"]["stage.handler"]
        exemplars = wire.get("exemplars", {})
        assert exemplars, "handler histogram must keep a trace per bucket"
        # The exemplar is the trace id of a request that landed in that
        # bucket; it resolves in the server's slow-trace ring.
        trace_id = next(iter(exemplars.values()))
        assert re.fullmatch(r"[0-9a-f]{16}", trace_id)
        assert server.traces.find(trace_id) is not None
