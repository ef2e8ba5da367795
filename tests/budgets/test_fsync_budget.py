"""Deterministic work budget: fsyncs per ADD on a durable server.

Each accepted fresh ADD costs exactly one commit fsync before its ack; a
duplicate or a rejected ADD costs none.  Counted through an in-process
transport over a real socket; nothing sleeps.
"""

import random

from repro.client.endpoints import SocketEndpoint
from repro.crypto.userid import UserIdAuthority
from repro.loadgen.signatures import random_signature_blobs
from repro.server.server import CommunixServer, ServerConfig
from repro.server.transport import ServerTransport
from repro.util.clock import ManualClock


def test_one_fsync_per_accepted_fresh_add(tmp_path):
    server = CommunixServer(
        ServerConfig(data_dir=str(tmp_path / "data"), adjacency_check=False,
                     max_signatures_per_user_per_day=1_000),
        authority=UserIdAuthority(rng=random.Random(3)),
        clock=ManualClock(start=1_000_000.0),
    )
    transport = ServerTransport(server)
    transport.start()
    endpoint = SocketEndpoint(transport.bound_endpoints[0].url())
    store = server.store
    blobs = random_signature_blobs(5, seed=11)
    try:
        token = endpoint.issue_token()
        before = store.fsyncs_issued
        for blob in blobs:
            assert endpoint.add(blob, token)
        assert store.fsyncs_issued - before == len(blobs)
        before = store.fsyncs_issued
        assert endpoint.add(blobs[0], endpoint.issue_token())  # duplicate
        assert not endpoint.add(blobs[1], "bogus-token")  # rejected
        assert store.fsyncs_issued == before
    finally:
        endpoint.close()
        transport.stop()
        server.close()
