"""Scenario state machines, driven directly (no sockets)."""

import random

import pytest

from repro.loadgen.scenarios import (
    OP_ISSUE_ID,
    SCENARIO_NAMES,
    AdjacentSpam,
    Churn,
    ClientContext,
    ColdSync,
    ForgedTokens,
    Park,
    QuotaFlood,
    Reconnect,
    Send,
    SteadyState,
    Stop,
    build_mix,
    make_scenario,
    parse_mix,
)
from repro.loadgen.signatures import (
    adjacent_spam_blobs,
    forged_tokens,
    off_path_flood_blobs,
    random_signature_blobs,
)
from repro.server.protocol import (
    encode_get_page_response,
    pack_signature_record,
)
from repro.util.encoding import canonical_json, from_canonical_json


CTX = ClientContext(client_id=0)


class ParkAfterToken(SteadyState):
    """Fig. 3's barrier shape: obtain a token, then hold at the start
    barrier; ``on_release`` sends the first ADD."""

    def on_response(self, ctx, op, payload):
        action = super().on_response(ctx, op, payload)
        if op == OP_ISSUE_ID and not self.failed:
            return Park()
        return action


def page(next_index, blobs, more):
    chunks = [pack_signature_record(b) for b in blobs]
    return encode_get_page_response(next_index, len(blobs), chunks, more)


def drive_request(action):
    """Decode the JSON request inside a Send action."""
    assert isinstance(action, Send)
    return from_canonical_json(action.payload)


class TestColdSync:
    def test_drains_until_more_clears(self):
        scenario = ColdSync(page_size=2)
        action = scenario.on_connect(CTX)
        assert drive_request(action) == {"op": "GET", "from_index": 0,
                                         "max_count": 2}
        action = scenario.on_response(CTX, "get_page", page(2, [b"a", b"b"], True))
        assert drive_request(action)["from_index"] == 2
        action = scenario.on_response(CTX, "get_page", page(3, [b"c"], False))
        assert isinstance(action, Stop)
        assert scenario.drained == 3
        assert scenario.completed

    def test_resumes_from_cursor_after_reconnect(self):
        scenario = ColdSync(page_size=4)
        scenario.on_connect(CTX)
        scenario.on_response(CTX, "get_page", page(4, [b"x"] * 4, True))
        action = scenario.on_connect(CTX)  # redial mid-drain
        assert drive_request(action)["from_index"] == 4


class TestSteadyState:
    def _token_response(self):
        return canonical_json({"ok": True, "token": "deadbeef"})

    def test_full_round_sequence(self):
        blobs = random_signature_blobs(2, seed=5)
        scenario = SteadyState(blobs, page_size=8)
        action = scenario.on_connect(CTX)
        assert drive_request(action)["op"] == "ISSUE_ID"
        action = scenario.on_response(CTX, "issue_id", self._token_response())
        assert drive_request(action)["op"] == "ADD"
        action = scenario.on_response(
            CTX, "add", canonical_json({"ok": True, "verdict": "ok", "index": 0})
        )
        assert drive_request(action)["op"] == "GET"
        action = scenario.on_response(CTX, "get_page", page(1, [b"s"], False))
        assert drive_request(action)["op"] == "ADD"  # round 2
        scenario.on_response(CTX, "add",
                             canonical_json({"ok": True, "verdict": "ok"}))
        action = scenario.on_response(CTX, "get_page", page(2, [b"t"], False))
        assert isinstance(action, Stop)
        assert scenario.accepted == 2
        assert scenario.completed
        assert scenario.cursor == 2

    def test_parks_at_barrier_then_releases(self):
        scenario = ParkAfterToken(random_signature_blobs(1, seed=6))
        scenario.on_connect(CTX)
        action = scenario.on_response(CTX, "issue_id", self._token_response())
        assert isinstance(action, Park)
        action = scenario.on_release(CTX)
        assert drive_request(action)["op"] == "ADD"

    def test_failed_token_issue_aborts(self):
        scenario = SteadyState(random_signature_blobs(1, seed=7))
        scenario.on_connect(CTX)
        action = scenario.on_response(CTX, "issue_id",
                                      canonical_json({"ok": False}))
        assert isinstance(action, Stop)
        assert scenario.failed

    def test_think_time_sets_send_delay(self):
        scenario = SteadyState(random_signature_blobs(2, seed=8),
                               think_time=0.5)
        scenario.on_connect(CTX)
        first = scenario.on_response(CTX, "issue_id", self._token_response())
        assert first.delay == 0.0  # first ADD goes out immediately
        scenario.on_response(CTX, "add", canonical_json({"ok": True}))
        later = scenario.on_response(CTX, "get_page", page(1, [], False))
        assert later.delay == 0.5


class TestChurn:
    def test_cycles_and_reconnects(self):
        scenario = Churn(cycles=2, ops_per_cycle=2, page_size=4)
        scenario.on_connect(CTX)
        scenario.on_response(CTX, "get_page", page(4, [b"x"] * 4, True))
        action = scenario.on_response(CTX, "get_page", page(8, [b"y"] * 4, True))
        assert isinstance(action, Reconnect)
        scenario.on_connect(CTX)
        scenario.on_response(CTX, "get_page", page(12, [b"z"] * 4, True))
        action = scenario.on_response(CTX, "get_page", page(16, [b"w"] * 4, True))
        assert isinstance(action, Stop)
        assert scenario.connects == 2
        assert scenario.cycles_done == 2
        assert scenario.completed

    def test_cursor_wraps_when_database_drained(self):
        scenario = Churn(cycles=1, ops_per_cycle=2, page_size=4)
        scenario.on_connect(CTX)
        action = scenario.on_response(CTX, "get_page", page(3, [b"x"] * 3, False))
        assert drive_request(action)["from_index"] == 0  # wrapped


class TestAttackScenarios:
    def test_forged_tokens_tally_verdicts(self):
        blobs = off_path_flood_blobs(3, seed=1)
        scenario = ForgedTokens(blobs, forged_tokens(3, seed=1))
        action = scenario.on_connect(CTX)
        for _ in range(3):
            assert drive_request(action)["op"] == "ADD"
            action = scenario.on_response(
                CTX, "add_forged",
                canonical_json({"ok": False, "verdict": "bad_token"}),
            )
        assert isinstance(action, Stop)
        assert scenario.verdicts == {"bad_token": 3}
        assert scenario.completed

    def test_authenticated_spam_counts_accepted(self):
        scenario = AdjacentSpam(adjacent_spam_blobs(3, seed=2))
        scenario.on_connect(CTX)
        action = scenario.on_response(
            CTX, "issue_id", canonical_json({"ok": True, "token": "aa"})
        )
        verdicts = ["ok", "adjacent", "adjacent"]
        for verdict in verdicts:
            assert drive_request(action)["op"] == "ADD"
            action = scenario.on_response(
                CTX, "add_attack",
                canonical_json({"ok": verdict == "ok", "verdict": verdict}),
            )
        assert isinstance(action, Stop)
        assert scenario.accepted == 1
        assert scenario.verdicts["adjacent"] == 2

    def test_quota_flood_blobs_are_distinct(self):
        blobs = off_path_flood_blobs(12, seed=3)
        assert len(set(blobs)) == 12

    def test_forged_token_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ForgedTokens(off_path_flood_blobs(3), forged_tokens(2))


class TestMixBuilding:
    def test_parse_mix(self):
        assert parse_mix("cold=1,steady=2") == [("cold", 1.0), ("steady", 2.0)]
        assert parse_mix("churn") == [("churn", 1.0)]
        with pytest.raises(ValueError):
            parse_mix("bogus=1")
        with pytest.raises(ValueError):
            parse_mix("")

    def test_build_mix_apportions_all_clients(self):
        scenarios = build_mix("cold=1,steady=2,churn=1", 10, seed=3)
        assert len(scenarios) == 10
        kinds = [type(s).__name__ for s in scenarios]
        assert kinds.count("ColdSync") in (2, 3)
        assert kinds.count("SteadyState") == 5
        assert kinds.count("Churn") in (2, 3)

    def test_build_mix_merges_repeated_names(self):
        scenarios = build_mix("steady=1,steady=1", 10, seed=1)
        assert len(scenarios) == 10
        assert all(type(s).__name__ == "SteadyState" for s in scenarios)

    def test_build_mix_is_deterministic(self):
        first = build_mix("steady=1", 3, seed=9)
        second = build_mix("steady=1", 3, seed=9)
        assert [s.blobs for s in first] == [s.blobs for s in second]

    def test_make_scenario_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_scenario("nope", random.Random(0))

    @pytest.mark.parametrize("attempt", [
        lambda: parse_mix("rampflood=1"),
        lambda: make_scenario("rampflood", random.Random(0)),
        lambda: build_mix("steady=1,rampflood=1", 4),
    ], ids=["parse_mix", "make_scenario", "build_mix"])
    def test_removed_rampflood_names_the_remaining_scenarios(self, attempt):
        with pytest.raises(ValueError, match="rampflood") as excinfo:
            attempt()
        for name in SCENARIO_NAMES:
            assert repr(name) in str(excinfo.value)
        assert "rampflood" not in SCENARIO_NAMES
