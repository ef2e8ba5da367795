"""EXP-FL — §IV-B in-text: the bounded signature flood.

"Assuming 100 attackers manage to obtain 5 ids each from the server, and
they keep sending fake signatures to the server, the attackers could make
the server process and add to its database only up to 100*5*10 = 5,000
signatures in 1 day.  Assuming the worst case, i.e., the 5,000 signatures
are sent simultaneously by the 100 attackers, the server can process the
signatures in 1 second, the Communix client can download them in a few
minutes, and the agent can process them in 10-15 seconds."

This bench drives exactly that pipeline: 500 attacker identities x 10
signatures each -> server ingest (direct invocation), client download (TCP
loopback), agent validation+generalization — and reports the three stage
times.
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.conftest import write_artifact
from repro.appmodel import PRESETS, SignatureFactory, generate_application
from repro.client.client import CommunixClient
from repro.client.endpoints import SocketEndpoint
from repro.core.agent import CommunixAgent
from repro.core.history import DeadlockHistory
from repro.core.repository import LocalRepository
from repro.crypto.userid import UserIdAuthority
from repro.server.server import CommunixServer
from repro.server.transport import ServerTransport
from repro.util.clock import ManualClock

ATTACKERS = 100
IDS_PER_ATTACKER = 5
SIGS_PER_ID = 10  # the daily quota: this is all they can ever land
TOTAL = ATTACKERS * IDS_PER_ATTACKER * SIGS_PER_ID
APP_SCALE = 0.25


def run_flood() -> dict:
    app = generate_application(PRESETS["jboss"], scale=APP_SCALE)
    app.nested_sync_sites()
    factory = SignatureFactory(app, seed=99)
    # The strongest flood: signatures that will pass client-side validation.
    blobs = [factory.make_valid(depth=7).to_bytes() for _ in range(TOTAL)]

    server = CommunixServer(
        authority=UserIdAuthority(rng=random.Random(17)),
        clock=ManualClock(start=1_000_000.0),
    )
    tokens = [
        server.issue_user_token()
        for _ in range(ATTACKERS * IDS_PER_ATTACKER)
    ]

    # --- stage 1: the server ingests the whole day's worth of flood -------
    started = time.perf_counter()
    accepted = 0
    for i, blob in enumerate(blobs):
        token = tokens[i // SIGS_PER_ID]
        if server.process_add(blob, token).accepted:
            accepted += 1
    ingest_seconds = time.perf_counter() - started

    # --- stage 2: a victim's client downloads them -------------------------
    transport = ServerTransport(server)
    transport.start()
    url = transport.bound_endpoints[0].url()
    repo = LocalRepository()
    endpoint = SocketEndpoint(url, io_timeout=120.0)
    client = CommunixClient(endpoint=endpoint, repository=repo,
                            clock=ManualClock(start=1_000_000.0))
    started = time.perf_counter()
    report = client.poll_once()
    download_seconds = time.perf_counter() - started
    endpoint.close()
    transport.stop()

    # --- stage 3: the victim's agent chews through them at startup ---------
    history = DeadlockHistory()
    agent = CommunixAgent(app, history, repo)
    started = time.perf_counter()
    agent_report = agent.on_application_start()
    agent_seconds = time.perf_counter() - started

    return {
        "sent": TOTAL,
        "accepted_by_server": accepted,
        "downloaded": report.received,
        "ingest_seconds": ingest_seconds,
        "download_seconds": download_seconds,
        "agent_seconds": agent_seconds,
        "agent_inspected": agent_report.inspected,
        "history_size": len(history),
    }


def test_flood_pipeline(benchmark, results_dir):
    result = benchmark.pedantic(run_flood, rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    # The quota bound is absolute: nothing beyond 10/id/day gets in.
    assert result["accepted_by_server"] <= TOTAL
    assert result["downloaded"] <= result["accepted_by_server"]
    lines = [
        "Signature flood pipeline (100 attackers x 5 ids x 10 sigs/day)",
        f"sent to server:        {result['sent']}",
        f"accepted by server:    {result['accepted_by_server']} "
        "(quota + adjacency bound)",
        f"server ingest:         {result['ingest_seconds']:.2f} s  (paper: ~1 s)",
        f"client download:       {result['download_seconds']:.2f} s  "
        "(paper: a few minutes over the WAN; loopback here)",
        f"agent processing:      {result['agent_seconds']:.2f} s of "
        f"{result['agent_inspected']} signatures  (paper: 10-15 s)",
        f"history entries after generalization: {result['history_size']}",
    ]
    write_artifact(results_dir, "flood_pipeline.txt", lines)
