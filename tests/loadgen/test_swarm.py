"""SwarmEngine integration: deterministic loopback runs against a live
event-driven server — drain completeness, FD hygiene, metrics invariants."""

import os
import random
import socket
import time

import pytest

from repro.crypto.userid import UserIdAuthority
from repro.loadgen.engine import SwarmEngine
from repro.loadgen.scenarios import (
    AdjacentSpam,
    Churn,
    ColdSync,
    ForgedTokens,
    QuotaFlood,
    SteadyState,
)
from repro.loadgen.signatures import (
    adjacent_spam_blobs,
    forged_tokens,
    off_path_flood_blobs,
    random_signature_blobs,
)
from repro.server.server import CommunixServer
from repro.server.transport import ServerTransport
from repro.util.clock import ManualClock

PRELOAD = 100


def open_fd_count() -> int | None:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:  # pragma: no cover - non-proc platforms
        return None


@pytest.fixture
def live_server(shared_factory):
    server = CommunixServer(
        authority=UserIdAuthority(rng=random.Random(11)),
        clock=ManualClock(start=1_000_000.0),
    )
    db = server.database
    uid = 10_000
    while len(db) < PRELOAD:
        sig = shared_factory.make_valid()
        if db.contains(sig.sig_id):
            continue
        db.append(sig, sig.to_bytes(), uid)
        uid += 1
    transport = ServerTransport(server, accept_backlog=1024,
                                idle_timeout=120.0)
    transport.start()
    url = transport.bound_endpoints[0].url()
    yield server, transport, url
    transport.stop()


class TestDeterministicLoopbackRun:
    def test_mixed_scenario_swarm(self, live_server):
        server, transport, url = live_server
        cold = [ColdSync(page_size=32) for _ in range(10)]
        steady = [
            SteadyState(random_signature_blobs(3, seed=1000 + i), page_size=64)
            for i in range(10)
        ]
        churn = [Churn(cycles=3, ops_per_cycle=2, page_size=16)
                 for _ in range(6)]
        forged = [
            ForgedTokens(off_path_flood_blobs(4, seed=50 + i),
                         forged_tokens(4, seed=50 + i))
            for i in range(4)
        ]
        adjacent = [AdjacentSpam(adjacent_spam_blobs(8, seed=70 + i))
                    for i in range(2)]
        flood = [QuotaFlood(off_path_flood_blobs(12, seed=90 + i))
                 for i in range(2)]
        scenarios = cold + steady + churn + forged + adjacent + flood

        fds_before = open_fd_count()
        engine = SwarmEngine(url, loops=2, connect_burst=64)
        engine.add_clients(scenarios)
        snapshot = engine.run(timeout=120.0)

        # Everyone finished, nothing aborted, no transport errors.
        assert engine.finished_count == len(scenarios)
        assert not engine.crashed
        assert [s for s in scenarios if s.failed] == []
        assert snapshot.errors == {}

        # Every cold-sync client drained the (growing) database.
        for scenario in cold:
            assert scenario.completed
            assert scenario.drained >= PRELOAD

        # Steady-state clients: every ADD accepted, all rounds done.
        for scenario in steady:
            assert scenario.completed
            assert scenario.accepted == 3

        # Churn clients really cycled their connections.
        for scenario in churn:
            assert scenario.completed
            assert scenario.connects == 3

        # Forged tokens: rejected to the last one.
        for scenario in forged:
            assert scenario.verdicts == {"bad_token": 4}

        # Adjacent spam: the §III-C2 check caps acceptance at a disjoint
        # pairing of the forged suffix pool (8 pairs from 5 stacks -> <=2).
        for scenario in adjacent:
            assert scenario.accepted <= 2
            assert scenario.verdicts.get("adjacent", 0) >= 6

        # Quota flood: only the daily quota (10) stops the flood.
        for scenario in flood:
            assert scenario.accepted == 10
            assert scenario.verdicts.get("quota_exceeded", 0) == 2

        # Histogram totals equal ops issued, per op and overall.
        issued = engine.issued()
        assert issued  # sanity: the run really issued work
        for op, n in issued.items():
            assert snapshot.count(op) + snapshot.errors.get(op, 0) == n
        assert snapshot.completed == sum(issued.values())
        assert sum(snapshot.series.values()) == snapshot.completed

        # Zero FD leaks after stop(), on both sides.  The in-process
        # server reaps its half of each closed connection on its next
        # loop tick, so give its registry a moment to drain before
        # counting descriptors.
        assert engine.open_fds() == []
        deadline = time.monotonic() + 10.0
        while transport.connection_count and time.monotonic() < deadline:
            time.sleep(0.01)
        assert transport.connection_count == 0
        fds_after = open_fd_count()
        if fds_before is not None:
            assert fds_after <= fds_before


class TestBarrier:
    def test_park_and_release(self, live_server):
        _, _, url = live_server
        n = 20
        scenarios = [
            SteadyState(random_signature_blobs(1, seed=2000 + i),
                        page_size=32, park_after_setup=True)
            for i in range(n)
        ]
        engine = SwarmEngine(url, loops=2)
        engine.add_clients(scenarios)
        engine.start()
        try:
            deadline = time.monotonic() + 60.0
            while engine.parked_count < n and time.monotonic() < deadline:
                time.sleep(0.01)
            assert engine.parked_count == n
            assert engine.connected_count == n
            released_at = engine.release()
            assert engine.wait(60.0)
            assert engine.completed_at >= released_at
        finally:
            engine.stop()
        snapshot = engine.snapshot()
        assert snapshot.count("add") == n
        assert snapshot.errors == {}
        assert all(s.completed for s in scenarios)


class TestUnixTransport:
    def test_swarm_over_unix_socket(self, tmp_path, shared_factory):
        """The engine dials unix:// endpoints exactly like TCP ones."""
        server = CommunixServer(
            authority=UserIdAuthority(rng=random.Random(17)),
            clock=ManualClock(start=1_000_000.0),
        )
        transport = ServerTransport(
            server, endpoints=[f"unix://{tmp_path / 'swarm.sock'}"],
            accept_backlog=256,
        )
        transport.start()
        url = transport.bound_endpoints[0].url()
        scenarios = [
            SteadyState(random_signature_blobs(2, seed=4000 + i), page_size=32)
            for i in range(20)
        ]
        engine = SwarmEngine(url, loops=2, connect_burst=16)
        engine.add_clients(scenarios)
        try:
            snapshot = engine.run(timeout=60.0)
        finally:
            transport.stop()
        assert engine.finished_count == 20
        assert snapshot.errors == {}
        assert all(s.completed for s in scenarios)
        assert snapshot.count("add") == 40
        assert engine.open_fds() == []

    def test_park_on_connect_barrier_mixed_scenarios(self, live_server):
        """Every scenario type parks before its first request and resumes
        on release — the federation worker's barrier mode."""
        from repro.loadgen.scenarios import build_mix

        _, _, url = live_server
        n = 18
        scenarios = build_mix(
            "cold=1,steady=1,churn=1,forged=1,adjacent=1,flood=1",
            n, seed=9, rounds=2, page_size=32, park=True,
        )
        engine = SwarmEngine(url, loops=2)
        engine.add_clients(scenarios)
        engine.start()
        try:
            parked = engine.wait_barrier(timeout=60.0)
            assert parked == n  # nobody issued a request before the gate
            assert engine.connected_count == n
            snapshot_before = engine.snapshot()
            assert snapshot_before.completed == 0
            engine.release()
            assert engine.wait(60.0)
        finally:
            engine.stop()
        snapshot = engine.snapshot()
        assert snapshot.errors == {}
        assert [s for s in scenarios if s.failed] == []
        assert snapshot.completed > 0


class TestLifecycle:
    def test_empty_engine_finishes_immediately(self):
        engine = SwarmEngine("tcp://127.0.0.1:1")
        snapshot = engine.run(timeout=1.0)
        assert engine.finished_count == 0
        assert snapshot.completed == 0

    def test_stop_mid_run_releases_every_fd(self, live_server):
        _, _, url = live_server
        engine = SwarmEngine(url, loops=2)
        engine.add_clients(ColdSync(page_size=8) for _ in range(30))
        engine.start()
        time.sleep(0.05)  # mid-drain
        engine.stop()
        assert engine.open_fds() == []

    def test_connect_refused_surfaces_as_connect_errors(self):
        # A port with no listener: every dial must fail fast and cleanly.
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        engine = SwarmEngine(f"tcp://127.0.0.1:{port}", loops=1,
                             connect_timeout=5.0)
        scenarios = [ColdSync() for _ in range(5)]
        engine.add_clients(scenarios)
        snapshot = engine.run(timeout=30.0)
        assert engine.finished_count == 5
        assert snapshot.errors.get("connect") == 5
        assert all(s.failed for s in scenarios)
        assert engine.open_fds() == []

    def test_add_clients_after_start_rejected(self):
        engine = SwarmEngine("tcp://127.0.0.1:1")
        engine.start()
        try:
            with pytest.raises(RuntimeError):
                engine.add_clients([ColdSync()])
        finally:
            engine.stop()


class TestPooledReceive:
    """Regression: each shard's read path borrows from its BufferPool
    instead of allocating a fresh buffer per recv (PR 6)."""

    def test_shard_reads_reuse_pooled_buffers(self, live_server):
        server, transport, url = live_server
        engine = SwarmEngine(url, loops=2)
        engine.add_clients([ColdSync(page_size=32) for _ in range(8)])
        engine.run(timeout=60.0)
        assert engine.finished_count == 8
        for shard in engine._shards:
            # Single-threaded shard loop: one buffer serves every read.
            assert shard._recv_pool.allocated <= 2
