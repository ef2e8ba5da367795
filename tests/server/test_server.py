"""Server request-processing tests (ADD/GET + §III-C2 validation)."""

import random

import pytest

from repro.core.signature import DeadlockSignature
from repro.crypto.userid import UserIdAuthority
from repro.server.ratelimit import SECONDS_PER_DAY
from repro.server.server import CommunixServer, ServerConfig
from repro.util.clock import ManualClock


@pytest.fixture
def server(manual_clock):
    authority = UserIdAuthority(rng=random.Random(11))
    return CommunixServer(authority=authority, clock=manual_clock)


class TestAdd:
    def test_valid_add_accepted(self, server, shared_factory):
        token = server.issue_user_token()
        sig = shared_factory.make_valid()
        outcome = server.process_add(sig.to_bytes(), token)
        assert outcome.accepted
        assert outcome.index == 0
        assert len(server.database) == 1

    def test_bad_token_rejected(self, server, shared_factory):
        sig = shared_factory.make_valid()
        outcome = server.process_add(sig.to_bytes(), "ab" * 48)
        assert not outcome.accepted
        assert outcome.verdict == "bad_token"

    def test_malformed_blob_rejected(self, server):
        token = server.issue_user_token()
        outcome = server.process_add(b"garbage bytes", token)
        assert not outcome.accepted
        assert outcome.verdict == "malformed"

    def test_oversized_blob_rejected(self, server):
        token = server.issue_user_token()
        outcome = server.process_add(b"x" * (65 * 1024), token)
        assert outcome.verdict == "oversized"

    def test_quota_enforced(self, manual_clock, shared_factory):
        # Disable the adjacency check so only the quota binds: random
        # same-app signatures often share some top frames.
        server = CommunixServer(
            config=ServerConfig(adjacency_check=False),
            authority=UserIdAuthority(rng=random.Random(1)),
            clock=manual_clock,
        )
        token = server.issue_user_token()
        accepted = 0
        for _ in range(15):
            sig = shared_factory.make_valid()
            if server.process_add(sig.to_bytes(), token).accepted:
                accepted += 1
        assert accepted == 10  # the paper's 10-per-day cap

    def test_quota_resets_next_day(self, manual_clock, shared_factory):
        # Adjacency off: only the quota should decide outcomes here.
        server = CommunixServer(
            config=ServerConfig(adjacency_check=False),
            authority=UserIdAuthority(rng=random.Random(6)),
            clock=manual_clock,
        )
        token = server.issue_user_token()
        for _ in range(10):
            server.process_add(shared_factory.make_valid().to_bytes(), token)
        assert not server.process_add(
            shared_factory.make_valid().to_bytes(), token
        ).accepted
        manual_clock.advance(SECONDS_PER_DAY)
        assert server.process_add(
            shared_factory.make_valid().to_bytes(), token
        ).accepted

    def test_duplicate_signature_same_index(self, server, shared_factory):
        token_a = server.issue_user_token()
        token_b = server.issue_user_token()
        sig = shared_factory.make_valid()
        first = server.process_add(sig.to_bytes(), token_a)
        second = server.process_add(sig.to_bytes(), token_b)
        assert first.index == second.index
        assert len(server.database) == 1


class TestAdjacency:
    def test_same_user_adjacent_rejected(self, server, shared_factory):
        token = server.issue_user_token()
        a, b = shared_factory.make_adjacent_pair()
        assert server.process_add(a.to_bytes(), token).accepted
        outcome = server.process_add(b.to_bytes(), token)
        assert not outcome.accepted
        assert outcome.verdict == "adjacent"

    def test_other_user_provides_adjacent(self, server, shared_factory):
        """'The signatures wrongly rejected due to this restriction can be
        provided by other users.'"""
        a, b = shared_factory.make_adjacent_pair()
        assert server.process_add(a.to_bytes(), server.issue_user_token()).accepted
        assert server.process_add(b.to_bytes(), server.issue_user_token()).accepted

    def test_identical_top_sets_not_adjacent(self, server, shared_factory):
        token = server.issue_user_token()
        a, b = shared_factory.make_mergeable_pair()
        assert server.process_add(a.to_bytes(), token).accepted
        outcome = server.process_add(b.to_bytes(), token)
        assert outcome.accepted  # same bug, different manifestation: fine

    def test_adjacency_check_can_be_disabled(self, manual_clock, shared_factory):
        server = CommunixServer(
            config=ServerConfig(adjacency_check=False),
            authority=UserIdAuthority(rng=random.Random(5)),
            clock=manual_clock,
        )
        token = server.issue_user_token()
        a, b = shared_factory.make_adjacent_pair()
        assert server.process_add(a.to_bytes(), token).accepted
        assert server.process_add(b.to_bytes(), token).accepted


class TestGet:
    def test_get_incremental(self, server, shared_factory):
        # One user per signature: the same-user adjacency check must not
        # interfere with what GET serves.
        sigs = [shared_factory.make_valid() for _ in range(3)]
        for sig in sigs:
            token = server.issue_user_token()
            assert server.process_add(sig.to_bytes(), token).accepted
        next_index, blobs, _ = server.process_get_page(0, 4096)
        assert next_index == 3
        assert [DeadlockSignature.from_bytes(b).sig_id for b in blobs] == [
            s.sig_id for s in sigs
        ]
        next_index, blobs, _ = server.process_get_page(2, 4096)
        assert len(blobs) == 1

    def test_get_empty_database(self, server):
        next_index, blobs, _ = server.process_get_page(0, 4096)
        assert next_index == 0
        assert blobs == []

    def test_stats_track_requests(self, server, shared_factory):
        token = server.issue_user_token()
        server.process_add(shared_factory.make_valid().to_bytes(), token)
        server.process_get_page(0, 4096)
        server.process_get_page(0, 4096)
        assert server.stats.adds_accepted == 1
        assert server.stats.gets_served == 2
        assert server.stats.signatures_served == 2


class TestTokenlessMode:
    def test_require_token_false_accepts_anything(self, manual_clock, shared_factory):
        server = CommunixServer(
            config=ServerConfig(require_token=False), clock=manual_clock
        )
        outcome = server.process_add(shared_factory.make_valid().to_bytes(), "")
        assert outcome.accepted
