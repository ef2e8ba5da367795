"""EXP-P — persistence: replay throughput and per-policy ADD overhead.

Two questions the durable store must answer with numbers:

1. **Restart cost** — how fast does a server come back?  Replay sigs/s
   for a *cold* open (no checkpoint manifest: every record CRC-verified
   and deserialized) versus a *checkpointed* open (manifest present:
   the prefix loads from stored metadata, only the tail is validated),
   at 10k and 50k signatures (smoke: 500/2,000).

2. **Steady-state cost** — what does durability do to the ADD hot path?
   Per-ADD latency (p50/p99) through the full ``process_add`` pipeline
   under each fsync policy — ``memory`` (no store, the seed behavior),
   ``never``, ``interval:5``, ``always`` — on one process, one disk.

3. **Group commit** — concurrent ADDs under ``always``: the WAL batches
   every append buffered while the previous fsync was in flight into one
   flush, so aggregate throughput scales past the one-fsync-per-ADD
   wall that caps the single-threaded ``always`` number above.  Swept
   over appender thread counts, plus a ``group_commit=False`` control at
   the widest point.

Results land in ``BENCH_persistence.json`` (``BENCH_persistence.smoke.json``
under ``COMMUNIX_BENCH_SMOKE=1``) plus ``results/persistence.txt``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import threading
import time

import pytest

from benchmarks.conftest import bench_json_path, write_artifact
from repro.loadgen.signatures import random_signature
from repro.server.database import SignatureDatabase
from repro.server.server import CommunixServer, ServerConfig
from repro.store import SignatureStore
from repro.store.checkpoint import manifest_path

SMOKE = os.environ.get("COMMUNIX_BENCH_SMOKE") == "1"
#: Database sizes for the replay measurement.
REPLAY_SIZES = (500, 2000) if SMOKE else (10_000, 50_000)
#: ADDs timed per fsync policy (after a small warmup).
ADD_COUNT = 200 if SMOKE else 2000
ADD_WARMUP = 20 if SMOKE else 100
#: ``None`` is the memory-only baseline the others are compared against.
POLICIES = (None, "never", "interval:5", "always")
#: Concurrent appender counts for the group-commit sweep.
GC_THREADS = (2,) if SMOKE else (1, 4, 16)
#: Total ADDs per group-commit point (split across the threads).
GC_ADDS = 200 if SMOKE else 2000

_replay_points: list[dict] = []
_add_points: list[dict] = []
_gc_points: list[dict] = []


def _make_signatures(count: int, seed: int):
    rng = random.Random(seed)
    sigs, seen = [], set()
    while len(sigs) < count:
        sig = random_signature(rng)
        if sig.sig_id in seen:
            continue
        seen.add(sig.sig_id)
        sigs.append(sig)
    return sigs


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path))


def _populate_store(data_dir: str, signatures) -> None:
    store = SignatureStore(data_dir, fsync="never")
    for i, sig in enumerate(signatures):
        store.append(sig.to_bytes(), sig.sig_id, i % 97 + 1, sig.top_frames)
    store.close()  # seals with a checkpoint manifest covering everything


def _timed_open(data_dir: str) -> tuple[float, SignatureDatabase, SignatureStore]:
    start = time.perf_counter()
    store = SignatureStore(data_dir, fsync="never")
    database = SignatureDatabase(store=store)
    return time.perf_counter() - start, database, store


def run_replay_point(data_dir: str, count: int) -> dict:
    signatures = _make_signatures(count, seed=count)
    _populate_store(data_dir, signatures)
    data_bytes = _dir_bytes(data_dir)

    # Checkpointed restart: manifest covers the full log.
    warm_s, db, store = _timed_open(data_dir)
    assert len(db) == count and db.replayed_count == count
    assert store.replayed_past_checkpoint == 0
    store.close(final_checkpoint=False)

    # Cold restart: no manifest — CRC + deserialize every record.
    os.remove(manifest_path(data_dir))
    cold_s, db, store = _timed_open(data_dir)
    assert len(db) == count
    assert store.replayed_past_checkpoint == count
    # Sanity: the replayed database serves the same bytes it stored.
    _, _count, chunks, _ = db.wire_from(0, count)
    assert _count == count
    store.close(final_checkpoint=False)

    return {
        "signatures": count,
        "log_bytes": data_bytes,
        "cold_replay_s": round(cold_s, 4),
        "cold_sigs_per_s": round(count / cold_s, 1),
        "checkpointed_replay_s": round(warm_s, 4),
        "checkpointed_sigs_per_s": round(count / warm_s, 1),
        "checkpoint_speedup": round(cold_s / warm_s, 2),
    }


def run_add_point(data_dir: str | None, policy: str | None) -> dict:
    """Per-ADD latency through ``process_add`` under one fsync policy."""
    config = ServerConfig(
        max_signatures_per_user_per_day=10 ** 9,
        adjacency_check=False,  # identical pipeline across policies
        data_dir=data_dir,
        fsync_policy=policy or "never",
        checkpoint_every=0,
    )
    server = CommunixServer(config=config)
    token = server.issue_user_token()
    signatures = _make_signatures(ADD_WARMUP + ADD_COUNT, seed=8080)
    for sig in signatures[:ADD_WARMUP]:
        assert server.process_add(sig.to_bytes(), token).accepted
    latencies = []
    started = time.perf_counter()
    for sig in signatures[ADD_WARMUP:]:
        blob = sig.to_bytes()
        t0 = time.perf_counter()
        outcome = server.process_add(blob, token)
        latencies.append(time.perf_counter() - t0)
        assert outcome.accepted
    elapsed = time.perf_counter() - started
    server.close()
    latencies.sort()

    def pct(q: float) -> float:
        return latencies[min(len(latencies) - 1,
                             int(q * len(latencies)))] * 1000.0

    return {
        "policy": policy or "memory",
        "adds": ADD_COUNT,
        "adds_per_s": round(ADD_COUNT / elapsed, 1),
        "mean_ms": round(sum(latencies) / len(latencies) * 1000.0, 4),
        "p50_ms": round(pct(0.50), 4),
        "p99_ms": round(pct(0.99), 4),
    }


def run_group_commit_point(data_dir: str, threads: int,
                           group_commit: bool) -> dict:
    """Aggregate ADD throughput with ``threads`` concurrent appenders
    under ``--fsync always``, with or without group commit."""
    store = SignatureStore(data_dir, fsync="always",
                           group_commit=group_commit)
    config = ServerConfig(
        max_signatures_per_user_per_day=10 ** 9,
        adjacency_check=False,
        fsync_policy="always",
        checkpoint_every=0,
    )
    server = CommunixServer(config=config, store=store)
    signatures = _make_signatures(GC_ADDS, seed=4242)
    per_thread = GC_ADDS // threads
    shares = [signatures[i * per_thread:(i + 1) * per_thread]
              for i in range(threads)]
    tokens = [server.issue_user_token() for _ in range(threads)]
    errors: list[Exception] = []

    def run(share, token):
        try:
            for sig in share:
                assert server.process_add(sig.to_bytes(), token).accepted
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    workers = [threading.Thread(target=run, args=(share, token))
               for share, token in zip(shares, tokens)]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - started
    assert not errors
    total = per_thread * threads
    assert store.durable_count == total  # every ack was an fsynced record
    fsyncs = store.fsyncs_issued
    server.close()
    return {
        "threads": threads,
        "group_commit": group_commit,
        "adds": total,
        "adds_per_s": round(total / elapsed, 1),
        "fsyncs_issued": fsyncs,
        "adds_per_fsync": round(total / fsyncs, 2) if fsyncs else None,
    }


@pytest.mark.parametrize("count", REPLAY_SIZES)
def test_replay_throughput(benchmark, count, results_dir, tmp_path):
    point = benchmark.pedantic(
        run_replay_point, args=(str(tmp_path / "wal"), count),
        rounds=1, iterations=1,
    )
    _replay_points.append(point)
    _write_results(results_dir)
    benchmark.extra_info.update(point)
    assert point["cold_sigs_per_s"] > 0
    # The checkpoint must actually pay: skipping CRC + deserialization of
    # the whole history cannot be slower than doing it.  Only gated on
    # full runs — at smoke scale both opens are milliseconds, and a GC
    # pause on a noisy CI runner would flip a relative assertion.
    if not SMOKE:
        assert point["checkpointed_replay_s"] <= point["cold_replay_s"] * 1.5
    shutil.rmtree(tmp_path / "wal", ignore_errors=True)


@pytest.mark.parametrize("policy", POLICIES,
                         ids=lambda p: p or "memory")
def test_add_latency_per_policy(benchmark, policy, results_dir, tmp_path):
    data_dir = None if policy is None else str(tmp_path / "wal")
    point = benchmark.pedantic(
        run_add_point, args=(data_dir, policy), rounds=1, iterations=1
    )
    _add_points.append(point)
    _write_results(results_dir)
    benchmark.extra_info.update(point)
    assert point["p99_ms"] > 0
    if data_dir:
        shutil.rmtree(data_dir, ignore_errors=True)


@pytest.mark.parametrize("threads,group_commit",
                         [(t, True) for t in GC_THREADS]
                         + [(GC_THREADS[-1], False)],
                         ids=lambda v: str(v).lower())
def test_group_commit_concurrent_adds(benchmark, threads, group_commit,
                                      results_dir, tmp_path):
    data_dir = str(tmp_path / "wal")
    point = benchmark.pedantic(
        run_group_commit_point, args=(data_dir, threads, group_commit),
        rounds=1, iterations=1,
    )
    _gc_points.append(point)
    _write_results(results_dir)
    benchmark.extra_info.update(point)
    assert point["adds_per_s"] > 0
    # Batching must be visible: strictly fewer fsyncs than records.  Only
    # gated on full runs at real concurrency — with few threads on a fast
    # disk an fsync can finish before the next append shows up, leaving
    # nothing to batch.
    if group_commit and threads >= 4 and not SMOKE:
        assert point["fsyncs_issued"] < point["adds"]
    shutil.rmtree(data_dir, ignore_errors=True)


def _write_results(results_dir) -> None:
    baseline = next((p for p in _add_points if p["policy"] == "memory"), None)
    lines = [
        "Persistence — replay throughput and ADD overhead per fsync policy",
        "",
        "restart replay (cold = full CRC+deserialize, ckpt = manifest prefix):",
        "sigs     log_MB  cold_s  cold_sigs/s  ckpt_s  ckpt_sigs/s  speedup",
    ]
    for p in _replay_points:
        lines.append(
            f"{p['signatures']:7d}  {p['log_bytes'] / 1e6:6.1f}  "
            f"{p['cold_replay_s']:6.3f}  {p['cold_sigs_per_s']:11.0f}  "
            f"{p['checkpointed_replay_s']:6.3f}  "
            f"{p['checkpointed_sigs_per_s']:11.0f}  "
            f"{p['checkpoint_speedup']:6.2f}x"
        )
    lines += [
        "",
        f"ADD latency through process_add ({ADD_COUNT} adds, one thread):",
        "policy        adds/s   p50_ms   p99_ms   p99_overhead_ms",
    ]
    for p in _add_points:
        overhead = (p["p99_ms"] - baseline["p99_ms"]) if baseline else 0.0
        lines.append(
            f"{p['policy']:<12} {p['adds_per_s']:7.0f}  {p['p50_ms']:7.3f}  "
            f"{p['p99_ms']:7.3f}  {overhead:15.3f}"
        )
    if _gc_points:
        lines += [
            "",
            f"group commit under fsync=always ({GC_ADDS} concurrent adds):",
            "threads  group_commit   adds/s   fsyncs  adds/fsync",
        ]
        for p in _gc_points:
            per_fsync = (f"{p['adds_per_fsync']:10.2f}"
                         if p["adds_per_fsync"] else "         -")
            lines.append(
                f"{p['threads']:7d}  {str(p['group_commit']):<12} "
                f"{p['adds_per_s']:8.0f}  {p['fsyncs_issued']:7d}  {per_fsync}"
            )
    write_artifact(results_dir, "persistence.txt", lines)
    payload = {
        "benchmark": "persistence",
        "smoke": SMOKE,
        "replay": list(_replay_points),
        "add_latency": [
            dict(p, p99_overhead_ms=round(p["p99_ms"] - baseline["p99_ms"], 4)
                 if baseline else None)
            for p in _add_points
        ],
        "group_commit": list(_gc_points),
    }
    out = bench_json_path("BENCH_persistence")
    out.write_text(json.dumps(payload, indent=2) + "\n")
