"""Pluggable per-client behaviors for the swarm engine.

A **scenario** is a per-client state machine: the engine calls it on
connection events and completed responses, and the scenario answers with
the next :class:`Action` — send a request, park at the start barrier,
drop and redial the connection, or stop.  One scenario instance drives
exactly one simulated client; factories (``lambda: ColdSync(...)``) give
every client its own state.

The built-in scenarios cover the paper's workloads:

* :class:`ColdSync` — a new node draining the signature database through
  paginated ``GET`` (§III-B's download path);
* :class:`SteadyState` — the Fig. 2/3 load shape: ``ADD(sig)`` followed by
  an incremental ``GET`` from the client's cursor;
* :class:`Churn` — short-lived connections redialing between bursts;
* :class:`ForgedTokens` — §III-C2 attacker with undecryptable tokens;
* :class:`AdjacentSpam` — forged critical-path signatures the adjacency
  check must reject (§IV-B);
* :class:`QuotaFlood` — distinct off-path signatures stopped only by the
  per-user daily quota (§III-C1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.loadgen import signatures as siggen
from repro.server.protocol import count_get_page, encode_add_request, encode_request
from repro.util.encoding import from_canonical_json

#: Metric labels the built-in scenarios use.
OP_ISSUE_ID = "issue_id"
OP_ADD = "add"
OP_GET_PAGE = "get_page"
OP_ADD_FORGED = "add_forged"
OP_ADD_ATTACK = "add_attack"


# ------------------------------------------------------------------ actions
@dataclass(frozen=True)
class Send:
    """Transmit one request frame; ``op`` labels its latency histogram.
    A positive ``delay`` is client think time before the send."""

    payload: bytes
    op: str
    delay: float = 0.0


@dataclass(frozen=True)
class Park:
    """Hold at the start barrier until the engine releases the swarm
    (``SwarmEngine.release``); the connection stays open."""


@dataclass(frozen=True)
class Reconnect:
    """Close the connection and dial a fresh one after ``delay``."""

    delay: float = 0.0


@dataclass(frozen=True)
class Stop:
    """This client is finished; close its connection."""


Action = Send | Park | Reconnect | Stop


@dataclass
class ClientContext:
    """What the engine tells a scenario about its client."""

    client_id: int
    reconnects: int = 0


# ----------------------------------------------------------------- protocol
def _get_page_request(from_index: int, max_count: int) -> bytes:
    return encode_request(
        {"op": "GET", "from_index": from_index, "max_count": max_count}
    )


class Scenario:
    """Base scenario: subclasses implement ``begin`` and ``on_response``.

    ``begin`` returns the client's first action once it is connected.  A
    scenario that answers some response with :class:`Park` holds at the
    engine's start barrier, and ``begin`` runs again on release.
    """

    #: Set when the scenario aborted on an unexpected response or error.
    failed: bool = False

    def begin(self, ctx: ClientContext) -> Action:
        """First action on a fresh connection (and again after
        ``Reconnect``)."""
        raise NotImplementedError

    def on_connect(self, ctx: ClientContext) -> Action:
        return self.begin(ctx)

    def on_response(self, ctx: ClientContext, op: str, payload: bytes) -> Action:
        raise NotImplementedError

    def on_release(self, ctx: ClientContext) -> Action:
        """Called when the engine releases parked clients."""
        return self.begin(ctx)

    def on_error(self, ctx: ClientContext, op: str | None, exc: Exception) -> Action:
        """Connection-level failure (refused, reset, protocol error)."""
        self.failed = True
        return Stop()


# ---------------------------------------------------------------- scenarios
class ColdSync(Scenario):
    """Drain the database with paginated GETs until ``more`` is clear.

    Resumes from its cursor across reconnects, so it composes with churny
    transports.  ``drained`` counts signatures received; ``completed`` is
    set once the server reports no further entries.
    """

    def __init__(self, page_size: int = 256, start_index: int = 0):
        self.page_size = page_size
        self.cursor = start_index
        self.drained = 0
        self.completed = False

    def begin(self, ctx: ClientContext) -> Action:
        return Send(_get_page_request(self.cursor, self.page_size), OP_GET_PAGE)

    def on_response(self, ctx: ClientContext, op: str, payload: bytes) -> Action:
        next_index, count, more = count_get_page(payload)
        self.cursor = next_index
        self.drained += count
        if more:
            return Send(_get_page_request(self.cursor, self.page_size), OP_GET_PAGE)
        self.completed = True
        return Stop()


class SteadyState(Scenario):
    """``len(blobs)`` rounds of ``ADD(sig)`` + incremental ``GET``.

    The client first obtains a token (``ISSUE_ID``), then alternates
    uploads with cursor-resumed page downloads — the paper's steady-state
    node behavior.  ``think_time`` paces every ADD after the first.
    """

    def __init__(self, blobs: list[bytes], page_size: int = 256,
                 think_time: float = 0.0):
        self.blobs = blobs
        self.page_size = page_size
        self.think_time = think_time
        self.token: str | None = None
        self.cursor = 0
        self.round = 0
        self.accepted = 0
        self.completed = False

    def begin(self, ctx: ClientContext) -> Action:
        if self.token is None:
            return Send(encode_request({"op": "ISSUE_ID"}), OP_ISSUE_ID)
        return self._next_add(first=True)

    def _next_add(self, first: bool = False) -> Action:
        if self.round >= len(self.blobs):
            self.completed = True
            return Stop()
        blob = self.blobs[self.round]
        delay = 0.0 if first else self.think_time
        return Send(encode_add_request(blob, self.token), OP_ADD, delay=delay)

    def on_response(self, ctx: ClientContext, op: str, payload: bytes) -> Action:
        if op == OP_ISSUE_ID:
            decoded = from_canonical_json(payload)
            if not decoded.get("ok"):
                self.failed = True
                return Stop()
            self.token = str(decoded["token"])
            return self._next_add(first=True)
        if op == OP_ADD:
            if from_canonical_json(payload).get("ok"):
                self.accepted += 1
            return Send(_get_page_request(self.cursor, self.page_size), OP_GET_PAGE)
        next_index, _count, _more = count_get_page(payload)
        self.cursor = next_index
        self.round += 1
        return self._next_add()


class Churn(Scenario):
    """Connection churn: dial, page a few times, hang up, redial.

    Exercises the server's accept path and idle/close handling the way a
    population of short-lived clients does.  ``connects`` counts
    established connections; the cursor persists across them.
    """

    def __init__(self, cycles: int = 5, ops_per_cycle: int = 2,
                 page_size: int = 64, reconnect_delay: float = 0.0):
        self.cycles = cycles
        self.ops_per_cycle = ops_per_cycle
        self.page_size = page_size
        self.reconnect_delay = reconnect_delay
        self.cursor = 0
        self.connects = 0
        self.cycles_done = 0
        self._ops_this_cycle = 0
        self.completed = False

    def begin(self, ctx: ClientContext) -> Action:
        self.connects += 1
        self._ops_this_cycle = 0
        return Send(_get_page_request(self.cursor, self.page_size), OP_GET_PAGE)

    def on_response(self, ctx: ClientContext, op: str, payload: bytes) -> Action:
        next_index, _count, more = count_get_page(payload)
        # Wrap to the start when drained, so every op moves real data.
        self.cursor = next_index if more else 0
        self._ops_this_cycle += 1
        if self._ops_this_cycle < self.ops_per_cycle:
            return Send(_get_page_request(self.cursor, self.page_size), OP_GET_PAGE)
        self.cycles_done += 1
        if self.cycles_done >= self.cycles:
            self.completed = True
            return Stop()
        return Reconnect(delay=self.reconnect_delay)


class ForgedTokens(Scenario):
    """§III-C attacker without a valid identity: every ADD carries an
    undecryptable token and must come back ``bad_token``."""

    def __init__(self, blobs: list[bytes], tokens: list[str]):
        if len(tokens) < len(blobs):
            raise ValueError("need one forged token per blob")
        self.blobs = blobs
        self.tokens = tokens
        self.sent = 0
        self.verdicts: dict[str, int] = {}
        self.completed = False

    def begin(self, ctx: ClientContext) -> Action:
        return self._next_add()

    def _next_add(self) -> Action:
        if self.sent >= len(self.blobs):
            self.completed = True
            return Stop()
        action = Send(
            encode_add_request(self.blobs[self.sent], self.tokens[self.sent]),
            OP_ADD_FORGED,
        )
        self.sent += 1
        return action

    def on_response(self, ctx: ClientContext, op: str, payload: bytes) -> Action:
        verdict = str(from_canonical_json(payload).get("verdict", "unknown"))
        self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
        return self._next_add()


class _AuthenticatedSpam(Scenario):
    """One valid identity uploading a prepared spam blob list; tallies the
    server's per-ADD verdicts."""

    op = OP_ADD_ATTACK

    def __init__(self, blobs: list[bytes]):
        self.blobs = blobs
        self.token: str | None = None
        self.sent = 0
        self.verdicts: dict[str, int] = {}
        self.completed = False

    def begin(self, ctx: ClientContext) -> Action:
        if self.token is None:
            return Send(encode_request({"op": "ISSUE_ID"}), OP_ISSUE_ID)
        return self._next_add()

    def _next_add(self) -> Action:
        if self.sent >= len(self.blobs):
            self.completed = True
            return Stop()
        action = Send(
            encode_add_request(self.blobs[self.sent], self.token), self.op
        )
        self.sent += 1
        return action

    def on_response(self, ctx: ClientContext, op: str, payload: bytes) -> Action:
        decoded = from_canonical_json(payload)
        if op == OP_ISSUE_ID:
            if not decoded.get("ok"):
                self.failed = True
                return Stop()
            self.token = str(decoded["token"])
            return self._next_add()
        verdict = str(decoded.get("verdict", "unknown"))
        self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
        return self._next_add()

    @property
    def accepted(self) -> int:
        return self.verdicts.get("ok", 0)


class AdjacentSpam(_AuthenticatedSpam):
    """§IV-B critical-path forgeries from one user: pairwise-overlapping
    top frames, so the adjacency check caps what the server accepts."""


class QuotaFlood(_AuthenticatedSpam):
    """Distinct valid-looking signatures from one user: only the daily
    quota (§III-C1) bounds how many the server accepts."""


# ------------------------------------------------------------ scenario mixes
def _steady_blobs(rng: random.Random, rounds: int) -> list[bytes]:
    return [siggen.random_signature(rng).to_bytes() for _ in range(rounds)]


def make_scenario(name: str, rng: random.Random, *, rounds: int = 5,
                  page_size: int = 256) -> Scenario:
    """One scenario instance by registry name (CLI / mix helper)."""
    seed = rng.getrandbits(32)
    if name == "cold":
        return ColdSync(page_size=page_size)
    if name == "steady":
        return SteadyState(_steady_blobs(rng, rounds), page_size=page_size)
    if name == "churn":
        return Churn(cycles=max(1, rounds), ops_per_cycle=2,
                     page_size=page_size)
    if name == "forged":
        return ForgedTokens(
            siggen.off_path_flood_blobs(rounds, seed=seed),
            siggen.forged_tokens(rounds, seed=seed),
        )
    if name == "adjacent":
        return AdjacentSpam(siggen.adjacent_spam_blobs(rounds, seed=seed))
    if name == "flood":
        return QuotaFlood(siggen.off_path_flood_blobs(rounds, seed=seed))
    raise ValueError(f"unknown scenario {name!r} (have {sorted(SCENARIO_NAMES)})")


SCENARIO_NAMES = ("cold", "steady", "churn", "forged", "adjacent", "flood")


def parse_mix(spec: str) -> list[tuple[str, float]]:
    """``"cold=1,steady=2,churn=1"`` → weighted scenario names."""
    mix: list[tuple[str, float]] = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, weight = item.partition("=")
        name = name.strip()
        if name not in SCENARIO_NAMES:
            raise ValueError(
                f"unknown scenario {name!r} (have {sorted(SCENARIO_NAMES)})"
            )
        mix.append((name, float(weight) if weight else 1.0))
    if not mix or sum(w for _, w in mix) <= 0:
        raise ValueError(f"empty scenario mix {spec!r}")
    return mix


def build_mix(spec: str, clients: int, seed: int = 0, *, rounds: int = 5,
              page_size: int = 256) -> list[Scenario]:
    """``clients`` scenario instances apportioned by the mix's weights
    (largest-remainder rounding, deterministic under ``seed``)."""
    merged: dict[str, float] = {}
    for name, weight in parse_mix(spec):  # collapse repeated names
        merged[name] = merged.get(name, 0.0) + weight
    total_weight = sum(merged.values())
    rng = random.Random(seed)
    shares = [(name, clients * weight / total_weight)
              for name, weight in merged.items()]
    counts = {name: int(share) for name, share in shares}
    remainder = clients - sum(counts.values())
    by_fraction = sorted(shares, key=lambda s: s[1] - int(s[1]), reverse=True)
    for name, _ in by_fraction[:remainder]:
        counts[name] += 1
    scenarios: list[Scenario] = []
    for name, count in counts.items():
        for _ in range(count):
            scenarios.append(
                make_scenario(name, rng, rounds=rounds, page_size=page_size)
            )
    return scenarios
