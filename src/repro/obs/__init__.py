"""Server-side observability: metrics registry, request tracing, exporters.

``repro.obs`` is the instrumentation layer the server threads through
every stage of its request pipeline (see ``docs/architecture.md`` §9):

* :mod:`repro.obs.histogram` — :class:`Histogram`, the one latency
  histogram value type (the client swarm's :mod:`repro.loadgen.metrics`
  records into it too, so server-side and client-side histograms are
  directly comparable and share a wire form), and
  :class:`StageHistogram`, a thread-sharded recorder safe to hammer from
  the worker pool and the event loop at once;
* :mod:`repro.obs.registry` — :class:`MetricsRegistry`, the process-wide
  home of named counters, gauges, and stage histograms, plus
  :data:`NULL_REGISTRY`, the compiled-out no-op twin the overhead
  benchmarks compare against;
* :mod:`repro.obs.trace` — :class:`RequestTrace`, the per-request stage
  stamp card behind the slow-request log;
* :mod:`repro.obs.export` — the Prometheus text renderer behind the
  admin plane and the periodic JSONL :class:`MetricsLogWriter` benches
  consume.

Recording a sample is allocation-free and lock-free (the
:class:`~repro.obs.registry.ShardedCounter` idiom), so instrumentation is
safe on the event-loop thread; ``bench_hotpath.py`` gates its overhead.
"""

from repro.obs.histogram import (
    BUCKET_COUNT,
    Histogram,
    StageHistogram,
    bucket_index,
    bucket_upper_bound,
)
from repro.obs.registry import (
    NULL_REGISTRY,
    Gauge,
    MetricsRegistry,
    NullRegistry,
    ShardedCounter,
)
from repro.obs.trace import (
    ALL_STAGES,
    STAGE_APPLY_LAG,
    STAGE_CRYPTO,
    STAGE_DB_APPEND,
    STAGE_DB_READ,
    STAGE_FLUSH,
    STAGE_GROUP_COMMIT,
    STAGE_GUARD_CHECK,
    STAGE_HANDLER,
    STAGE_OWNER_QUEUE,
    STAGE_QUEUE_WAIT,
    STAGE_REPL_FORWARD,
    STAGE_VALIDATE,
    STAGE_WAL_FSYNC,
    RequestTrace,
    TraceBuffer,
    decode_trace_stages,
    encode_trace_stages,
    format_trace_id,
    mint_trace_id,
)
from repro.obs.export import (
    MetricsLogWriter,
    last_snapshot_line,
    merge_registry_snapshots,
    metric_name,
    render_prometheus,
)

__all__ = [
    "ALL_STAGES",
    "BUCKET_COUNT",
    "Gauge",
    "Histogram",
    "MetricsLogWriter",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "RequestTrace",
    "STAGE_APPLY_LAG",
    "STAGE_CRYPTO",
    "STAGE_DB_APPEND",
    "STAGE_DB_READ",
    "STAGE_FLUSH",
    "STAGE_GROUP_COMMIT",
    "STAGE_GUARD_CHECK",
    "STAGE_HANDLER",
    "STAGE_OWNER_QUEUE",
    "STAGE_QUEUE_WAIT",
    "STAGE_REPL_FORWARD",
    "STAGE_VALIDATE",
    "STAGE_WAL_FSYNC",
    "ShardedCounter",
    "StageHistogram",
    "TraceBuffer",
    "bucket_index",
    "bucket_upper_bound",
    "decode_trace_stages",
    "encode_trace_stages",
    "format_trace_id",
    "last_snapshot_line",
    "merge_registry_snapshots",
    "metric_name",
    "mint_trace_id",
    "render_prometheus",
]
