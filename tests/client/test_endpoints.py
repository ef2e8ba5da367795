"""Endpoint tests (in-process; TCP endpoints are covered in server tests)."""

import random

import pytest

from repro.client.endpoints import InProcessEndpoint
from repro.core.signature import DeadlockSignature
from repro.crypto.userid import UserIdAuthority
from repro.server.server import CommunixServer
from repro.util.clock import ManualClock


@pytest.fixture
def endpoint():
    server = CommunixServer(
        authority=UserIdAuthority(rng=random.Random(3)),
        clock=ManualClock(start=1_000_000.0),
    )
    return InProcessEndpoint(server), server


class TestInProcessEndpoint:
    def test_issue_token_valid(self, endpoint):
        ep, server = endpoint
        token = ep.issue_token()
        assert server.authority.decode(token).user_id >= 1

    def test_add_get_round_trip(self, endpoint, shared_factory):
        ep, server = endpoint
        token = ep.issue_token()
        sig = shared_factory.make_valid()
        assert ep.add(sig.to_bytes(), token) is True
        next_index, blobs, _ = ep.get_page(0, 4096)
        assert next_index == 1
        assert DeadlockSignature.from_bytes(blobs[0]).sig_id == sig.sig_id

    def test_add_rejection_returns_false(self, endpoint, shared_factory):
        ep, _ = endpoint
        sig = shared_factory.make_valid()
        assert ep.add(sig.to_bytes(), "not-a-token") is False

    def test_incremental_get(self, endpoint, shared_factory):
        ep, _ = endpoint
        for _ in range(3):
            ep.add(shared_factory.make_valid().to_bytes(), ep.issue_token())
        next_index, blobs, _ = ep.get_page(1, 4096)
        assert next_index == 3
        assert len(blobs) == 2
