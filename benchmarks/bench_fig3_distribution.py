"""EXP-F3 — Figure 3: end-to-end signature distribution over the network.

Paper setup: the server on one machine, 10-200 client threads on another,
each sending 10 ``ADD(sig), GET(0)`` sequences over TCP.  Reported: replies
per second received *per client thread*.  Paper shape: scales to ~30 client
threads, 20-110 replies/s per thread — up to two orders of magnitude below
Figure 2, because moving the ever-growing GET(0) payload through the network
becomes the bottleneck (~630 MB in the last round at N=200).

Scaling substitution: loopback TCP via the ``repro.loadgen`` swarm (the
seed's thread-per-connection client capped this sweep at 100 threads), up
to 200 simulated clients x 3 sequences.  Each sequence is one ``ADD``
followed by a **full paginated drain from index 0**, so the quadratic
data volume the paper measures is preserved — just framed in bounded
pages instead of one giant legacy response.
"""

from __future__ import annotations

import os
import random

import pytest

from benchmarks.conftest import write_artifact
from repro.crypto.userid import UserIdAuthority
from repro.loadgen.engine import SwarmEngine
from repro.loadgen.scenarios import (
    OP_ADD,
    OP_GET_PAGE,
    OP_ISSUE_ID,
    Park,
    Scenario,
    Send,
    Stop,
)
from repro.loadgen.signatures import random_signature
from repro.server.protocol import count_get_page, encode_add_request, encode_request
from repro.server.server import CommunixServer, ServerConfig
from repro.server.transport import ServerTransport
from repro.util.clock import ManualClock
from repro.util.encoding import from_canonical_json
from benchmarks.swarm_common import wait_for_barrier

SMOKE = os.environ.get("COMMUNIX_BENCH_SMOKE") == "1"
SWEEP = (5, 15) if SMOKE else (10, 25, 50, 100, 200)
SEQUENCES_PER_CLIENT = 2 if SMOKE else 3
PAGE_SIZE = 512

_series: dict[int, float] = {}


class AddDrain(Scenario):
    """The paper's Fig. 3 client: ``ADD(sig)`` then download the whole
    database, repeated per sequence — built on the swarm's Scenario API
    with a paginated drain standing in for the legacy ``GET(0)``."""

    def __init__(self, blobs: list[bytes], page_size: int = PAGE_SIZE):
        self.blobs = blobs
        self.page_size = page_size
        self.token: str | None = None
        self.sequence = 0
        self.completed = False

    def on_connect(self, ctx):
        return Send(encode_request({"op": "ISSUE_ID"}), OP_ISSUE_ID)

    def on_release(self, ctx):
        return self._next_sequence()

    def _next_sequence(self):
        if self.sequence >= len(self.blobs):
            self.completed = True
            return Stop()
        blob = self.blobs[self.sequence]
        self.sequence += 1
        return Send(encode_add_request(blob, self.token), OP_ADD)

    def _page(self, from_index: int):
        return Send(
            encode_request({"op": "GET", "from_index": from_index,
                            "max_count": self.page_size}),
            OP_GET_PAGE,
        )

    def on_response(self, ctx, op, payload):
        if op == OP_ISSUE_ID:
            decoded = from_canonical_json(payload)
            if not decoded.get("ok"):
                self.failed = True
                return Stop()
            self.token = str(decoded["token"])
            return Park()  # connected + authenticated: hold for the barrier
        if op == OP_ADD:
            return self._page(0)  # GET(0): the worst case the paper measures
        next_index, _count, more = count_get_page(payload)
        if more:
            return self._page(next_index)
        return self._next_sequence()


def run_point(n_clients: int) -> float:
    """Returns mean replies/second observed per simulated client."""
    server = CommunixServer(
        authority=UserIdAuthority(rng=random.Random(7)),
        clock=ManualClock(start=1_000_000.0),
        # The paper's load is random signatures; adjacency rarely triggers,
        # but quota must admit every ADD (10/day >= our 3 sequences).
        config=ServerConfig(),
    )
    transport = ServerTransport(server, accept_backlog=1024,
                                idle_timeout=300.0)
    transport.start()
    url = transport.bound_endpoints[0].url()
    rng = random.Random(1000 + n_clients)
    scenarios = [
        AddDrain([random_signature(rng).to_bytes()
                  for _ in range(SEQUENCES_PER_CLIENT)])
        for _ in range(n_clients)
    ]
    engine = SwarmEngine(url, loops=2, connect_burst=256)
    engine.add_clients(scenarios)
    engine.start()
    try:
        wait_for_barrier(engine, n_clients, timeout=120.0)
        released_at = engine.release()
        finished = engine.wait(timeout=600.0)
        completed_at = engine.completed_at
    finally:
        engine.stop()
        transport.stop()
    snapshot = engine.snapshot()
    assert finished and snapshot.errors == {}, snapshot.errors
    assert all(s.completed for s in scenarios)
    replies = snapshot.count(OP_ADD) + snapshot.count(OP_GET_PAGE)
    elapsed = completed_at - released_at
    return replies / elapsed / n_clients


@pytest.mark.parametrize("n_clients", SWEEP)
def test_fig3_distribution(benchmark, n_clients, results_dir):
    per_client = benchmark.pedantic(
        run_point, args=(n_clients,), rounds=1, iterations=1
    )
    _series[n_clients] = per_client
    benchmark.extra_info["replies_per_second_per_client"] = per_client
    assert per_client > 0
    if n_clients == SWEEP[-1]:
        lines = [
            "Figure 3 — end-to-end distribution "
            f"(swarm loopback TCP, {SEQUENCES_PER_CLIENT} sequences/client, "
            f"full paginated drain per sequence)",
            "clients  replies_per_second_per_client",
        ]
        for n in SWEEP:
            if n in _series:
                lines.append(f"{n:7d}  {_series[n]:10.1f}")
        lines.append(
            "paper: 20-110 replies/s per thread, knee at ~30 threads; "
            "1-2 orders of magnitude below Figure 2"
        )
        write_artifact(results_dir, "fig3_distribution.txt", lines)
