"""Per-request stage tracing for the slow-request log and ``/traces``.

A :class:`RequestTrace` is a cheap stamp card handed down the pipeline
(transport → server → validator → database → store → WAL) that each
stage stamps with its elapsed seconds.  Traces are allocated when the
slow-request log is armed (``--slow-request-ms``) or metrics are on;
the always-on per-stage *histograms* live in the registry and don't
need one, but they borrow the trace's id as a per-bucket exemplar.

Stage names are shared constants so histogram names, trace keys, and the
docs' stage diagram can never drift apart:

    queue_wait -> validate (crypto on cache miss)
    -> db_append (wal_fsync inside; group_commit is the leader wait)
    -> handler (end-to-end dispatch) -> flush
    db_read replaces validate + db_append on a GET.
"""

from __future__ import annotations

import heapq
import itertools
import random
import threading

__all__ = [
    "STAGE_QUEUE_WAIT",
    "STAGE_VALIDATE",
    "STAGE_CRYPTO",
    "STAGE_DB_APPEND",
    "STAGE_DB_READ",
    "STAGE_WAL_FSYNC",
    "STAGE_GROUP_COMMIT",
    "STAGE_HANDLER",
    "STAGE_FLUSH",
    "ALL_STAGES",
    "RequestTrace",
    "TraceBuffer",
    "mint_trace_id",
    "format_trace_id",
]

STAGE_QUEUE_WAIT = "queue_wait"      # frame parsed -> worker dequeues it
STAGE_VALIDATE = "validate"          # token decode + quota + adjacency
STAGE_CRYPTO = "crypto"              # authority.decode on token-cache miss
STAGE_DB_APPEND = "db_append"        # database append incl. durable store
STAGE_DB_READ = "db_read"            # wire-page composition for GET
STAGE_WAL_FSYNC = "wal_fsync"        # flush + fsync wait inside the WAL
STAGE_GROUP_COMMIT = "group_commit"  # commit-leader wait inside wal_fsync
STAGE_HANDLER = "handler"            # whole dispatch on the worker
STAGE_FLUSH = "flush"                # response queued -> last byte written

ALL_STAGES = (
    STAGE_QUEUE_WAIT,
    STAGE_VALIDATE,
    STAGE_CRYPTO,
    STAGE_DB_APPEND,
    STAGE_DB_READ,
    STAGE_WAL_FSYNC,
    STAGE_GROUP_COMMIT,
    STAGE_HANDLER,
    STAGE_FLUSH,
)

# Trace ids are u64: a random per-process prefix (so ids minted before
# and after a restart can't collide) over a monotonically increasing
# suffix.  next() on an itertools.count is GIL-atomic, so
# minting needs no lock.
_TRACE_ID_BITS = 64
_SEQ_BITS = 40
_SEQ_MASK = (1 << _SEQ_BITS) - 1
_trace_base = random.getrandbits(_TRACE_ID_BITS - _SEQ_BITS) << _SEQ_BITS
_trace_seq = itertools.count(1)


def mint_trace_id() -> int:
    """A fresh non-zero u64 trace id (0 is reserved for "untraced")."""
    trace_id = _trace_base | (next(_trace_seq) & _SEQ_MASK)
    return trace_id if trace_id else 1


def format_trace_id(trace_id: int) -> str:
    """Canonical 16-hex-digit rendering used in logs and ``/traces``."""
    return f"{trace_id:016x}"


class RequestTrace:
    """Stage -> elapsed-seconds stamps for one request."""

    __slots__ = ("op", "trace_id", "stages")

    def __init__(self, op: str = "?") -> None:
        self.op = op
        self.trace_id = mint_trace_id()
        self.stages: dict[str, float] = {}

    def stamp(self, stage: str, seconds: float) -> None:
        # A stage can run more than once per request (e.g. wal_fsync
        # under rotation); accumulate.
        self.stages[stage] = self.stages.get(stage, 0.0) + seconds

    def hex_id(self) -> str:
        return format_trace_id(self.trace_id)

    def total(self) -> float:
        return self.stages.get(STAGE_HANDLER, 0.0) + self.stages.get(
            STAGE_QUEUE_WAIT, 0.0
        )

    def breakdown(self) -> str:
        """``stage=1.23ms`` pairs in pipeline order, for the slow log."""
        parts = [
            f"{stage}={self.stages[stage] * 1000.0:.2f}ms"
            for stage in ALL_STAGES
            if stage in self.stages
        ]
        return " ".join(parts) if parts else "no stages stamped"


class TraceBuffer:
    """Bounded ring of the N slowest completed traces.

    Backed by a min-heap keyed on trace total, so a new trace evicts the
    *fastest* retained one; ``snapshot()`` returns slowest-first.  A
    lock-free floor pre-check keeps the steady-state cost of a fast
    request at one comparison once the buffer is full.
    """

    __slots__ = ("_capacity", "_lock", "_heap", "_seq", "_floor")

    def __init__(self, capacity: int = 64) -> None:
        self._capacity = max(1, int(capacity))
        self._lock = threading.Lock()
        # Heap items: (total_seconds, tiebreak_seq, entry_dict).
        self._heap: list[tuple[float, int, dict]] = []
        self._seq = itertools.count()
        self._floor = -1.0  # eviction threshold once full; racy read ok

    def __len__(self) -> int:
        return len(self._heap)

    def note(self, trace: RequestTrace) -> None:
        if trace is None or not trace.stages:
            return
        total = trace.total()
        if total <= self._floor:
            return
        entry = {
            "trace_id": trace.hex_id(),
            "op": trace.op,
            "total_ms": total * 1000.0,
            "stages_ms": {
                stage: trace.stages[stage] * 1000.0
                for stage in ALL_STAGES
                if stage in trace.stages
            },
        }
        item = (total, next(self._seq), entry)
        with self._lock:
            if len(self._heap) < self._capacity:
                heapq.heappush(self._heap, item)
            elif total > self._heap[0][0]:
                heapq.heapreplace(self._heap, item)
            else:
                return
            if len(self._heap) >= self._capacity:
                self._floor = self._heap[0][0]

    def snapshot(self) -> list[dict]:
        """Retained traces, slowest first (dicts are JSON-ready copies)."""
        with self._lock:
            items = sorted(self._heap, reverse=True)
        return [dict(entry) for _, _, entry in items]

    def find(self, trace_id: str) -> dict | None:
        """Look up one retained trace by its 16-hex-digit id."""
        with self._lock:
            for _, _, entry in self._heap:
                if entry["trace_id"] == trace_id:
                    return dict(entry)
        return None
