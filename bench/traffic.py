"""Closed-loop client traffic for the four workloads.

Every client is a Communix client daemon in miniature: it sends one
request, waits for the reply, checks it, and only then sends the next.
Framing and request encoding are the client library's own
(``repro.server.protocol``), so the driver pays what a real client pays.

A *cycle* is one unit of a workload's traffic (an ADD→GET pair, one
whole session, one page of a drain).  ``run_serial`` alternates cycles
between the clients with one request in flight; ``run_concurrent`` gives
each client its own thread.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import threading
import time
from dataclasses import dataclass, field

from repro.client import SocketEndpoint
from repro.net import dial
from repro.server.protocol import (
    count_get_page,
    encode_add_request,
    encode_request,
    read_frame,
    write_frame,
)
from repro.util.errors import ProtocolError

from child import IO_TIMEOUT_S

#: Page size the real client daemon asks for (``repro.client``).
PAGE = 2048
#: Tail a churn session reads after its ADD.
CHURN_TAIL = 256
#: The server's default daily quota: tokens rotate after this many ADDs.
ADDS_PER_TOKEN = 10
#: SHA-256 over a 2 MB page costs about as much as the server spends
#: sending it; hashing one drain in this many keeps the client light.
HASH_EVERY_DRAIN = 4

_ISSUE = encode_request({"op": "ISSUE_ID"})


class CheckFailed(Exception):
    """A reply was wrong (not merely slow): the run is incorrect."""


class PoolExhausted(Exception):
    """The pre-generated signature pool ran out before the window did."""


@dataclass
class Recorder:
    """Per-client latency samples and counts (one writer, no lock)."""

    conn: int
    keep_spans: bool = False
    latencies: dict[str, list[float]] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)
    attempted: int = 0
    completed: int = 0
    wrong: int = 0  # replies that arrived but failed a check
    sigs: int = 0

    def reset(self) -> None:
        self.latencies = {}
        self.spans = []
        self.attempted = self.completed = self.wrong = self.sigs = 0

    def note(self, op: str, started: float, ended: float) -> None:
        self.completed += 1
        self.latencies.setdefault(op, []).append(ended - started)
        if self.keep_spans:
            self.spans.append((op, self.conn, started, ended))


class Wire:
    """One blocking connection; ``call`` is a timed request/reply."""

    def __init__(self, url: str, recorder: Recorder):
        self._rec = recorder
        self._sock = dial(url, timeout=IO_TIMEOUT_S)
        self._sock.settimeout(IO_TIMEOUT_S)

    def close(self) -> None:
        self._sock.close()

    def call(self, op: str, request: bytes) -> bytes:
        rec = self._rec
        rec.attempted += 1
        started = time.perf_counter()
        write_frame(self._sock, request)
        reply = read_frame(self._sock)
        ended = time.perf_counter()
        if reply is None:
            raise ProtocolError(f"server closed the connection on {op}")
        rec.note(op, started, ended)
        return reply


def _issue_token(wire: Wire) -> str:
    reply = json.loads(wire.call("issue", _ISSUE))
    if not reply.get("ok"):
        raise CheckFailed(f"ISSUE_ID refused: {reply!r}")
    return reply["token"]


def _add(wire: Wire, blob: bytes, token: str, acked: dict[int, bytes]) -> int:
    reply = json.loads(wire.call("add", encode_add_request(blob, token)))
    if not reply.get("ok") or reply.get("verdict") != "ok":
        raise CheckFailed(f"ADD not acked ok: {reply!r}")
    index = reply["index"]
    acked[index] = blob
    return index


def _get_page(wire: Wire, from_index: int, max_count: int
              ) -> tuple[bytes, int, int, bool]:
    page = wire.call("get", encode_request(
        {"op": "GET", "from_index": from_index, "max_count": max_count}))
    next_index, count, more = count_get_page(page)
    if next_index != from_index + count or count > max_count:
        raise CheckFailed(
            f"GET({from_index}, {max_count}) answered next_index="
            f"{next_index} count={count}")
    return page, next_index, count, more


class SteadyClient:
    """Persistent connection looping ADD(fresh) → GET(own cursor)."""

    def __init__(self, url: str, recorder: Recorder, blobs,
                 acked: dict[int, bytes], cursor: int = 0):
        self.rec = recorder
        self._wire = Wire(url, recorder)
        self._blobs = blobs
        self._acked = acked
        self._cursor = cursor
        self._token = ""
        self._adds_on_token = ADDS_PER_TOKEN

    def cycle(self) -> None:
        if self._adds_on_token == ADDS_PER_TOKEN:
            self._token = _issue_token(self._wire)
            self._adds_on_token = 0
        _add(self._wire, next_blob(self._blobs), self._token, self._acked)
        self._adds_on_token += 1
        _, self._cursor, count, _ = _get_page(self._wire, self._cursor, PAGE)
        self.rec.sigs += count

    def close(self) -> None:
        self._wire.close()


class ChurnClient:
    """Fig. 2's per-client sequence, one fresh connection per session."""

    def __init__(self, url: str, recorder: Recorder, blobs,
                 acked: dict[int, bytes]):
        self.rec = recorder
        self._url = url
        self._blobs = blobs
        self._acked = acked

    def cycle(self) -> None:
        blob = next_blob(self._blobs)
        started = time.perf_counter()
        wire = Wire(self._url, self.rec)
        # Not through note(): a connect is timed but is not a request.
        self.rec.latencies.setdefault("connect", []).append(
            time.perf_counter() - started)
        try:
            token = _issue_token(wire)
            size = _add(wire, blob, token, self._acked) + 1
            _, _, count, _ = _get_page(
                wire, max(0, size - CHURN_TAIL), CHURN_TAIL)
            if count < min(size, CHURN_TAIL):
                raise CheckFailed(
                    f"tail read returned {count} of a database of {size}")
            self.rec.sigs += count
        finally:
            wire.close()

    def close(self) -> None:
        pass


class ColdSyncClient:
    """Repeats a full paginated drain from index 0; one page per cycle."""

    def __init__(self, url: str, recorder: Recorder, total: int,
                 expected_sha256: str):
        self.rec = recorder
        self._wire = Wire(url, recorder)
        self._total = total
        self._expected = expected_sha256
        self._cursor = 0
        self.drains = 0
        self.hashed_drains = 0
        self._hasher = hashlib.sha256()

    def cycle(self) -> None:
        page, next_index, count, more = _get_page(
            self._wire, self._cursor, PAGE)
        if count != min(PAGE, self._total - self._cursor):
            raise CheckFailed(
                f"page at {self._cursor} held {count} signatures")
        self.rec.sigs += count
        hashing = self.drains % HASH_EVERY_DRAIN == 0
        if hashing:
            self._hasher.update(memoryview(page)[13:])  # records only
        self._cursor = next_index
        if more:
            return
        if next_index != self._total:
            raise CheckFailed(
                f"drain ended at {next_index}, expected {self._total}")
        if hashing:
            if self._hasher.hexdigest() != self._expected:
                raise CheckFailed("drained bytes differ from the preload")
            self._hasher = hashlib.sha256()
            self.hashed_drains += 1
        self.drains += 1
        self._cursor = 0

    def close(self) -> None:
        self._wire.close()


def next_blob(blobs) -> bytes:
    try:
        return next(blobs)
    except StopIteration:
        raise PoolExhausted from None


@dataclass
class WindowResult:
    elapsed: float
    cpu_seconds: float
    pool_exhausted: bool = False
    errors: list[str] = field(default_factory=list)


def _drive(clients, deadline: float, result: WindowResult,
           max_cycles: float = float("inf")) -> None:
    """Cycle through ``clients`` until the deadline; a failure ends the
    window (the workloads are chosen so that none occurs)."""
    turn = 0
    client = clients[0]
    try:
        while turn < max_cycles and time.perf_counter() < deadline:
            client = clients[turn % len(clients)]
            client.cycle()
            turn += 1
    except PoolExhausted:
        result.pool_exhausted = True
    except (OSError, ProtocolError) as exc:
        result.errors.append(f"{type(exc).__name__}: {exc}")
    except (CheckFailed, ValueError, KeyError) as exc:
        client.rec.wrong += 1
        result.errors.append(f"{type(exc).__name__}: {exc}")


def run_serial(clients, seconds: float,
               max_cycles: float = float("inf")) -> WindowResult:
    """One driver thread, the clients taking turns: one request in flight."""
    result = WindowResult(0.0, 0.0)
    cpu = time.process_time()
    started = time.perf_counter()
    _drive(clients, started + seconds, result, max_cycles)
    result.elapsed = time.perf_counter() - started
    result.cpu_seconds = time.process_time() - cpu
    return result


def run_concurrent(clients, seconds: float) -> WindowResult:
    """One thread per client: as many requests in flight as clients."""
    result = WindowResult(0.0, 0.0)
    cpu = time.process_time()
    started = time.perf_counter()
    threads = [
        threading.Thread(target=_drive,
                         args=([client], started + seconds, result))
        for client in clients
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.elapsed = time.perf_counter() - started
    result.cpu_seconds = time.process_time() - cpu
    return result


def drain_all(url: str) -> list[bytes]:
    """Every signature the server holds, page by page (final check)."""
    endpoint = SocketEndpoint(url, io_timeout=IO_TIMEOUT_S)
    blobs: list[bytes] = []
    try:
        more = True
        while more:
            _, got, more = endpoint.get_page(len(blobs), PAGE)
            if not got and more:
                raise CheckFailed("drain made no progress")
            blobs.extend(got)
    finally:
        endpoint.close()
    return blobs


# ------------------------------------------------------------ summaries
def merged(recorders, op: str) -> list[float]:
    samples: list[float] = []
    for rec in recorders:
        samples.extend(rec.latencies.get(op, ()))
    return samples


def median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1000.0


def percentile_ms(samples: list[float], pct: float) -> float:
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, int(len(ordered) * pct / 100.0))
    return ordered[rank] * 1000.0


def supported_tail(samples: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for pct in (99.99, 99.9, 99.0, 90.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return {"pct": pct, "ms": percentile_ms(samples, pct), "n": n}
    return {"pct": 50.0, "ms": median_ms(samples) if samples else 0.0, "n": n}
