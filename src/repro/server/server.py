"""The Communix server's request-processing core (paper §III-B/C2, §IV-A).

``process_add`` and ``process_get_page`` are the two routines the paper's
Fig. 2 invokes "from 1,000-100,000 simultaneous threads"; they are fully
thread-safe and independent of any transport.  :class:`ServerTransport`
wraps them for the network (Fig. 3); benchmarks and tests may call them
directly.

Request accounting uses :class:`ShardedCounter` — per-thread counter shards
aggregated on read — so the hot path takes no stats lock at all.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass, field
from time import perf_counter

from repro.core.signature import DeadlockSignature, ORIGIN_REMOTE
from repro.crypto.userid import UserIdAuthority
from repro.obs import (
    NULL_REGISTRY,
    MetricsRegistry,
    ShardedCounter,
    STAGE_DB_APPEND,
    STAGE_DB_READ,
    STAGE_VALIDATE,
    TraceBuffer,
)
from repro.server.database import SignatureDatabase
from repro.server.ratelimit import DailyQuota
from repro.server.validation import ServerSideValidator, ServerVerdict
from repro.util.clock import Clock, SystemClock
from repro.util.errors import ProtocolError, ValidationError
from repro.util.logging import get_logger

log = get_logger("server")

#: Current STATS response schema version; ``{"op": "STATS"}`` without a
#: ``version`` field gets the six-counter v1 shape (the readiness probe).
STATS_VERSION = 2


@dataclass
class ServerConfig:
    max_signatures_per_user_per_day: int = 10
    require_token: bool = True
    adjacency_check: bool = True
    #: Upper bound on accepted signature blob size; a 2-thread signature is
    #: ~1.7 KB (paper §IV-A), so this is generous while bounding abuse.
    max_signature_bytes: int = 64 * 1024
    #: Hard cap on one paginated GET page; an oversized ``max_count`` from a
    #: client is clamped here.
    max_get_page: int = 4096
    #: Durability: directory for the segmented write-ahead log (see
    #: :mod:`repro.store`).  ``None`` keeps the seed behavior — memory only,
    #: the database dies with the process.
    data_dir: str | None = None
    #: Store fsync policy: ``always`` (an acked ADD survives kill -9),
    #: ``interval:<ms>`` (background flusher; bounded loss window), or
    #: ``never`` (OS-paced; clean shutdown still flushes).
    fsync_policy: str = "always"
    #: Write a checkpoint manifest every this many accepted signatures
    #: (plus one on clean shutdown); 0 checkpoints only on shutdown.
    checkpoint_every: int = 4096
    #: AES backend for user-ID tokens: a registered name (``pure`` is the
    #: FIPS-197 reference, ``fast`` the OpenSSL path via ``cryptography``),
    #: or ``None``/``"auto"`` for the default order (``REPRO_CRYPTO_BACKEND``
    #: env var, then fast-when-available).  Ignored when an ``authority``
    #: object is handed to :class:`CommunixServer` directly.
    crypto_backend: str | None = None
    #: Bound on the validator's decoded-token LRU; a forged-token flood
    #: cannot grow it past this many entries.
    token_cache_size: int = 65_536
    #: Observability: when False the server runs with the no-op
    #: :data:`repro.obs.NULL_REGISTRY` — no per-stage histograms, no
    #: timing reads on the hot path (``--no-metrics``; the baseline the
    #: instrumentation-overhead benchmark compares against).
    metrics_enabled: bool = True
    #: Log a stage breakdown for any request slower than this many
    #: milliseconds (0 disables the slow-request log).
    slow_request_ms: float = 0.0
    #: Admission guard (``repro.guard``, ``--guard``): streaming flood
    #: detection in front of validation — per-uid/per-signature sketch
    #: checks before the quota lock, flooding source endpoints shed on
    #: the event loop before crypto.  Off by default: the fixed daily
    #: quota alone is the paper's §III-C1 behavior.
    guard_enabled: bool = False
    #: Master guard budget in operations per decay window-pair
    #: (``--guard-budget``); per-dimension budgets derive from it — see
    #: :class:`repro.guard.GuardConfig`.
    guard_budget: int = 64
    #: Guard decay-window length in seconds (``--guard-window``):
    #: detection latency is about one window, relax-back several.
    guard_window_s: float = 5.0
    #: Tarpit delay for loop-shed responses (``--guard-tarpit``): a shed
    #: connection is held busy this long per response, throttling a
    #: closed-loop flooder to ~1/tarpit requests per second.
    guard_tarpit_s: float = 0.025
    #: How many of the slowest completed traces the in-memory ring keeps
    #: for the admin plane's ``/traces`` endpoint (``--trace-buffer``).
    trace_buffer_size: int = 64


@dataclass
class AddOutcome:
    accepted: bool
    verdict: str
    index: int | None = None


# ShardedCounter moved to repro.obs.registry (imported above) so every
# layer shares the per-thread-shard counting idiom; it remains exported
# from this module for existing callers.

@dataclass
class ServerStats:
    """A point-in-time aggregation of the server's sharded counters."""

    adds_accepted: int = 0
    adds_rejected: dict[str, int] = field(default_factory=dict)
    gets_served: int = 0
    signatures_served: int = 0
    token_cache_hits: int = 0
    token_cache_misses: int = 0

    def note_rejection(self, verdict: str) -> None:
        self.adds_rejected[verdict] = self.adds_rejected.get(verdict, 0) + 1


class _StatsCounters:
    """Lock-free request accounting; ``snapshot()`` builds a ServerStats."""

    def __init__(self) -> None:
        self.adds_accepted = ShardedCounter()
        self.gets_served = ShardedCounter()
        self.signatures_served = ShardedCounter()
        self._rejections: dict[str, ShardedCounter] = {}
        self._rejections_lock = threading.Lock()  # rare path: new verdicts

    def note_rejection(self, verdict: str) -> None:
        counter = self._rejections.get(verdict)
        if counter is None:
            with self._rejections_lock:
                counter = self._rejections.setdefault(verdict, ShardedCounter())
        counter.add()

    def rejections_total(self) -> int:
        while True:
            try:
                return sum(c.value() for c in self._rejections.values())
            except RuntimeError:  # a new verdict appeared mid-sum; retry
                continue

    def snapshot(self) -> ServerStats:
        # Read each rejection counter exactly once: value() walks every
        # thread shard, and a second read could disagree with the first
        # (the filter would then disagree with the value it filtered on).
        rejected = {}
        for verdict, counter in list(self._rejections.items()):
            count = counter.value()
            if count:
                rejected[verdict] = count
        return ServerStats(
            adds_accepted=self.adds_accepted.value(),
            adds_rejected=rejected,
            gets_served=self.gets_served.value(),
            signatures_served=self.signatures_served.value(),
        )


class CommunixServer:
    def __init__(self, config: ServerConfig | None = None,
                 authority: UserIdAuthority | None = None,
                 clock: Clock | None = None, store=None, metrics=None):
        """``store`` overrides the config-driven store; by default a
        :class:`~repro.store.SignatureStore` is opened (replaying any
        existing log) when ``config.data_dir`` is set.  ``metrics``
        overrides the config-driven registry (pass
        :data:`repro.obs.NULL_REGISTRY` to compile instrumentation out)."""
        self.config = config or ServerConfig()
        self.clock = clock or SystemClock()
        if metrics is None:
            metrics = (MetricsRegistry() if self.config.metrics_enabled
                       else NULL_REGISTRY)
        self.metrics = metrics
        self.authority = authority or UserIdAuthority(
            backend=self.config.crypto_backend
        )
        if store is None and self.config.data_dir:
            from repro.store import SignatureStore  # cycle-free lazy import

            store = SignatureStore(
                self.config.data_dir,
                fsync=self.config.fsync_policy,
                checkpoint_every=self.config.checkpoint_every,
            )
        self.store = store
        if store is not None and hasattr(store, "set_metrics"):
            # Covers caller-supplied stores too: the WAL's fsync wait
            # lands in stage.wal_fsync either way.
            store.set_metrics(metrics)
        self.database = SignatureDatabase(store=store)
        if store is not None:
            # Never re-issue a uid the pre-restart server already handed
            # out: quota and adjacency history must stay per-person.
            self.authority.advance(store.next_uid)
        self.quota = DailyQuota(
            self.clock, self.config.max_signatures_per_user_per_day
        )
        self.guard = None
        if self.config.guard_enabled:
            from repro.guard import AdmissionGuard, GuardConfig

            self.guard = AdmissionGuard(
                GuardConfig(window_s=self.config.guard_window_s,
                            budget=self.config.guard_budget,
                            tarpit_s=self.config.guard_tarpit_s),
                metrics=metrics,
            )
        self.validator = ServerSideValidator(
            self.authority, self.quota, self.database,
            token_cache_size=self.config.token_cache_size,
            metrics=metrics, guard=self.guard,
        )
        self._counters = _StatsCounters()
        #: Ring of the N slowest completed traces, fed by the transport
        #: (and the replication hub for forwarded ADDs), served by the
        #: admin plane's ``/traces``.  Always present — it only fills
        #: when traces are being minted.
        self.traces = TraceBuffer(self.config.trace_buffer_size)
        # Pre-resolved stage histograms: the hot path must not pay a
        # registry lookup per request.  _obs_on gates even the
        # perf_counter() reads when the null registry is installed.
        self._obs_on = metrics.enabled
        self._h_validate = metrics.histogram(f"stage.{STAGE_VALIDATE}")
        self._h_db_append = metrics.histogram(f"stage.{STAGE_DB_APPEND}")
        self._h_db_read = metrics.histogram(f"stage.{STAGE_DB_READ}")
        self._register_derived(metrics)

    def _register_derived(self, metrics) -> None:
        """Expose the v1 counters (and cache/database occupancy) through
        the registry as *derived* instruments: the existing accounting
        stays the single source of truth, so the hot path never counts
        twice and a Prometheus scrape can never disagree with STATS."""
        counters = self._counters
        cache = self.validator.token_cache
        database = self.database
        metrics.register_counter("adds_accepted",
                                 counters.adds_accepted.value)
        metrics.register_counter("adds_rejected", counters.rejections_total)
        metrics.register_counter("gets_served", counters.gets_served.value)
        metrics.register_counter("signatures_served",
                                 counters.signatures_served.value)
        metrics.register_counter("token_cache.hits", lambda: cache.hits)
        metrics.register_counter("token_cache.misses", lambda: cache.misses)
        metrics.register_counter("db.page_cache_hits",
                                 lambda: database.page_cache_hits)
        metrics.register_counter("db.page_cache_misses",
                                 lambda: database.page_cache_misses)
        metrics.register_gauge("db.size", database.__len__)
        metrics.register_gauge("db.segments", lambda: database.segment_count)
        metrics.register_gauge("token_cache.size", cache.__len__)

    @property
    def stats(self) -> ServerStats:
        """A consistent-enough snapshot of the sharded request counters."""
        stats = self._counters.snapshot()
        cache = self.validator.token_cache
        stats.token_cache_hits = cache.hits
        stats.token_cache_misses = cache.misses
        return stats

    # ----------------------------------------------------------- user ids
    def issue_user_token(self) -> str:
        """Hand out a fresh encrypted user ID.

        The paper deliberately leaves the Sybil-resistant issuing *service*
        out of scope (§III-C2) and so do we: this method is the trusted
        stand-in used by examples, tests, and benchmarks.
        """
        token = self.authority.issue(issued_at=int(self.clock.now()))
        if self.store is not None:
            # Best-effort watermark (persisted at the next checkpoint) so
            # even a user who only fetched a token keeps their uid across
            # a restart.
            self.store.note_next_uid(self.authority.next_uid)
        return token

    # ---------------------------------------------------------- durability
    def flush_store(self) -> None:
        """Force everything acked so far onto disk (no-op without a store);
        the transport calls this at the end of its graceful drain."""
        if self.store is not None and not self.store.closed:
            self.store.flush()

    def close(self) -> None:
        """Seal the store: final checkpoint manifest + flushed, closed log.
        The server object remains usable for reads; further ADDs would
        fail, so close last."""
        if self.store is not None and not self.store.closed:
            self.store.close(final_checkpoint=True)

    # ------------------------------------------------------------ requests
    def process_add(self, blob: bytes, token: str, trace=None) -> AddOutcome:
        """Handle ``ADD(sig)``: validate and store one signature blob.

        ``trace`` is an optional :class:`repro.obs.RequestTrace` the
        transport hands down when the slow-request log is armed; stage
        timings always go to the registry histograms when metrics are on.
        """
        timed = self._obs_on or trace is not None
        exemplar = trace.hex_id() if trace is not None else None
        if len(blob) > self.config.max_signature_bytes:
            return self._rejected("oversized")
        try:
            signature = DeadlockSignature.from_bytes(blob, origin=ORIGIN_REMOTE)
        except ValidationError:
            return self._rejected("malformed")
        if self.config.require_token:
            started = perf_counter() if timed else 0.0
            verdict, uid = self.validator.check_add(signature, token, trace)
            if timed:
                elapsed = perf_counter() - started
                self._h_validate.record(elapsed, exemplar)
                if trace is not None:
                    trace.stamp(STAGE_VALIDATE, elapsed)
            if not self.config.adjacency_check and verdict is ServerVerdict.ADJACENT:
                verdict, uid = ServerVerdict.OK, uid
            if verdict is not ServerVerdict.OK:
                return self._rejected(verdict.value)
        else:
            uid = 0
        started = perf_counter() if timed else 0.0
        try:
            index = self.database.append(signature, blob, uid, trace=trace)
        except (OSError, ValueError):  # disk failure / store already sealed
            # The write-ahead log could not take the record: the signature
            # is NOT durable, so it must not be acked as stored — and the
            # quota slot validation consumed must be given back, or a
            # full disk would burn a user's whole daily allowance on
            # retries that stored nothing.
            log.exception("store append failed; ADD not acknowledged")
            if self.config.require_token:
                self.quota.refund(uid)
            return self._rejected("store_error")
        if timed:
            elapsed = perf_counter() - started
            self._h_db_append.record(elapsed, exemplar)
            if trace is not None:
                trace.stamp(STAGE_DB_APPEND, elapsed)
        self._counters.adds_accepted.add()
        return AddOutcome(accepted=True, verdict="ok", index=index)

    def process_forwarded_add(self, blob: bytes, uid: int,
                              trace=None) -> AddOutcome:
        """ADD forwarded over the internal endpoint by a federated replica
        worker that already decoded the sender token to ``uid`` (see
        :mod:`repro.server.federation`).

        The log owner re-runs everything *global* — per-user quota,
        adjacency, dedup, the durable append — plus the cheap local checks
        (size, parse: the owner should not trust peers further than it
        must).  Request accounting is deliberately skipped: the forwarding
        worker already counted this ADD against its own client-facing
        stats, and the coordinator sums those — counting here too would
        double-book every forwarded request in the merged totals.
        """
        timed = self._obs_on or trace is not None
        exemplar = trace.hex_id() if trace is not None else None
        if len(blob) > self.config.max_signature_bytes:
            return AddOutcome(accepted=False, verdict="oversized")
        try:
            signature = DeadlockSignature.from_bytes(blob, origin=ORIGIN_REMOTE)
        except ValidationError:
            return AddOutcome(accepted=False, verdict="malformed")
        if self.config.require_token:
            started = perf_counter() if timed else 0.0
            verdict = self.validator.check_add_uid(signature, uid, trace)
            if timed:
                elapsed = perf_counter() - started
                self._h_validate.record(elapsed, exemplar)
                if trace is not None:
                    trace.stamp(STAGE_VALIDATE, elapsed)
            if (not self.config.adjacency_check
                    and verdict is ServerVerdict.ADJACENT):
                verdict = ServerVerdict.OK
            if verdict is not ServerVerdict.OK:
                return AddOutcome(accepted=False, verdict=verdict.value)
        started = perf_counter() if timed else 0.0
        try:
            index = self.database.append(signature, blob, uid, trace=trace)
        except (OSError, ValueError):
            log.exception("store append failed; forwarded ADD not "
                          "acknowledged")
            if self.config.require_token:
                self.quota.refund(uid)
            return AddOutcome(accepted=False, verdict="store_error")
        if timed:
            elapsed = perf_counter() - started
            self._h_db_append.record(elapsed, exemplar)
            if trace is not None:
                trace.stamp(STAGE_DB_APPEND, elapsed)
        return AddOutcome(accepted=True, verdict="ok", index=index)

    def _clamp_page(self, max_count: int) -> int:
        return min(max(0, max_count), self.config.max_get_page)

    @staticmethod
    def _checked_index(from_index) -> int:
        """Reject non-integral ``from_index`` before it reaches the
        database (a float or string from a caller must surface as a clean
        protocol error, not a ``TypeError`` inside the worker pool).
        Negative indices are tolerated here and clamped by the database;
        the wire layer (``decode_get_args``) is stricter."""
        try:
            return operator.index(from_index)
        except TypeError as exc:
            raise ProtocolError("GET from_index must be an integer") from exc

    def process_get_page(self, from_index: int, max_count: int
                         ) -> tuple[int, list[bytes], bool]:
        """Handle ``GET(k, m)``: up to ``max_count`` blobs (clamped to
        ``config.max_get_page``) from database index ``k`` on.

        Returns ``(next_index, blobs, more)`` so the client can loop while
        ``more`` and resume incrementally with ``GET(next_index)`` tomorrow.
        """
        next_index, blobs, more = self.database.blobs_page(
            self._checked_index(from_index), self._clamp_page(max_count)
        )
        self._counters.gets_served.add()
        self._counters.signatures_served.add(len(blobs))
        return next_index, blobs, more

    def process_get_wire(self, from_index: int, max_count: int,
                         trace=None
                         ) -> tuple[int, int, tuple[bytes, ...], bool]:
        """GET for the transport hot path: ``(next_index, count, chunks,
        more)`` where ``chunks`` are the database's precomposed response
        records (cache hits are O(segments), no per-blob work)."""
        timed = self._obs_on or trace is not None
        started = perf_counter() if timed else 0.0
        next_index, count, chunks, more = self.database.wire_from(
            self._checked_index(from_index), self._clamp_page(max_count)
        )
        if timed:
            elapsed = perf_counter() - started
            self._h_db_read.record(
                elapsed, trace.hex_id() if trace is not None else None
            )
            if trace is not None:
                trace.stamp(STAGE_DB_READ, elapsed)
        self._counters.gets_served.add()
        self._counters.signatures_served.add(count)
        return next_index, count, chunks, more

    def _rejected(self, verdict: str) -> AddOutcome:
        self._counters.note_rejection(verdict)
        return AddOutcome(accepted=False, verdict=verdict)

    # --------------------------------------------------------------- stats
    def stats_payload(self, version: int = 1) -> dict:
        """The STATS response body for the requested schema version.

        v1 is the six-counter shape a readiness probe needs (cheap: no
        registry snapshot).  v2 is a superset: everything v1 has, plus the
        rejection breakdown, ``signatures_served``, token-cache
        occupancy, and the full registry snapshot (per-stage histograms
        in the loadgen wire form, event-loop gauges, derived counters).
        """
        stats = self.stats
        payload = {
            "ok": True,
            "database_size": len(self.database),
            "adds_accepted": stats.adds_accepted,
            "gets_served": stats.gets_served,
            "token_cache_hits": stats.token_cache_hits,
            "token_cache_misses": stats.token_cache_misses,
        }
        if version < 2:
            return payload
        payload["version"] = STATS_VERSION
        payload["adds_rejected"] = stats.adds_rejected
        payload["signatures_served"] = stats.signatures_served
        payload["database_segments"] = self.database.segment_count
        payload["token_cache"] = self.validator.token_cache.stats()
        if self.guard is not None:
            payload["guard"] = self.guard.stats_payload()
        payload["metrics"] = self.metrics.snapshot()
        return payload
