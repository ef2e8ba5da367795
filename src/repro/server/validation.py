"""Server-side signature validation (paper §III-C2).

Upon receiving signature S with encrypted ID I, the server:

1. decrypts I to recover the sender's user ID (rejecting forged tokens);
2. enforces the per-user daily quota (§III-C1);
3. rejects S if the same user already sent a signature *adjacent* to S —
   "S and S' have some (but not all) top frames in common".  This is the
   check that collapses an attacker's signature space from
   ``N^4 * sum(N_d^4)`` to just N (one signature per nested block).

Token decryption is AES work; the validator memoizes decoded tokens in a
**bounded LRU** (:class:`TokenCache`), which keeps crypto off the hot path
exactly as a production server would.  Only *valid* tokens are cached, and
the cache is capped: a forged-token flood can neither grow it without
bound nor evict legitimate entries (forgeries never enter the cache —
each forgery burns its own AES decode, the attacker's cost, not ours).
Hit/miss counters surface on the server's ``STATS`` response.
"""

from __future__ import annotations

import collections
import enum
import threading
from time import perf_counter

from repro.core.signature import DeadlockSignature
from repro.crypto.userid import UserIdAuthority
from repro.obs import STAGE_CRYPTO
from repro.server.database import SignatureDatabase
from repro.server.ratelimit import DailyQuota
from repro.util.errors import CryptoError


class ServerVerdict(enum.Enum):
    OK = "ok"
    BAD_TOKEN = "bad_token"
    QUOTA_EXCEEDED = "quota_exceeded"
    ADJACENT = "adjacent"
    MALFORMED = "malformed"


def adjacent(top_frames_a: frozenset, top_frames_b: frozenset) -> bool:
    """Some, but not all, top frames in common (§III-C2)."""
    common = top_frames_a & top_frames_b
    return bool(common) and top_frames_a != top_frames_b


class TokenCache:
    """Thread-safe bounded LRU of ``token -> uid`` with hit/miss counters.

    The pre-LRU cache cleared itself wholesale when full, so a steady
    drip of *distinct* valid tokens (20k clients each holding their own)
    would periodically dump every warm entry and re-burn an AES decode
    per client.  LRU eviction keeps the active set warm and makes the
    worst case one decode per cold token, not one per flood cycle.
    """

    __slots__ = ("_data", "_lock", "capacity", "hits", "misses")

    def __init__(self, capacity: int = 65_536):
        self.capacity = max(1, capacity)
        self._data: collections.OrderedDict[str, int] = collections.OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, token: str) -> int | None:
        with self._lock:
            uid = self._data.get(token)
            if uid is None:
                self.misses += 1
                return None
            self._data.move_to_end(token)
            self.hits += 1
            return uid

    def put(self, token: str, uid: int) -> None:
        with self._lock:
            if token in self._data:
                self._data.move_to_end(token)
            elif len(self._data) >= self.capacity:
                self._data.popitem(last=False)
            self._data[token] = uid

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._data),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
            }


class ServerSideValidator:
    def __init__(self, authority: UserIdAuthority, quota: DailyQuota,
                 database: SignatureDatabase, token_cache_size: int = 65_536,
                 metrics=None):
        self._authority = authority
        self._quota = quota
        self._database = database
        self._token_cache = TokenCache(token_cache_size)
        # AES-decode time on cache misses; None when metrics are off so
        # the hot path pays no perf_counter() reads.
        self._h_crypto = (metrics.histogram(f"stage.{STAGE_CRYPTO}")
                          if metrics is not None and metrics.enabled
                          else None)

    @property
    def token_cache(self) -> TokenCache:
        return self._token_cache

    # -------------------------------------------------------------- tokens
    def resolve_uid(self, token: str, trace=None) -> int | None:
        uid = self._token_cache.get(token)
        if uid is not None:
            return uid
        histogram = self._h_crypto
        timed = histogram is not None or trace is not None
        started = perf_counter() if timed else 0.0
        try:
            decoded = self._authority.decode(token)
        except CryptoError:
            decoded = None
        if timed:
            elapsed = perf_counter() - started
            if histogram is not None:
                histogram.record(
                    elapsed, trace.hex_id() if trace is not None else None
                )
            if trace is not None:
                trace.stamp(STAGE_CRYPTO, elapsed)
        if decoded is None:
            return None
        self._token_cache.put(token, decoded.user_id)
        return decoded.user_id

    # ---------------------------------------------------------- validation
    def check_add(self, signature: DeadlockSignature, token: str,
                  trace=None) -> tuple[ServerVerdict, int | None]:
        """Full §III-C2 pipeline for one ADD; returns (verdict, uid)."""
        uid = self.resolve_uid(token, trace)
        if uid is None:
            return ServerVerdict.BAD_TOKEN, None
        if not self._quota.try_consume(uid):
            return ServerVerdict.QUOTA_EXCEEDED, uid
        mine = signature.top_frames
        for previous in self._database.user_top_frames(uid):
            if adjacent(mine, previous):
                return ServerVerdict.ADJACENT, uid
        return ServerVerdict.OK, uid
