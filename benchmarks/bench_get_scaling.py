"""EXP-GS — GET throughput vs. database size, before/after the sharded
segment-cache database, plus the event-loop concurrent-connection point.

The seed served every ``GET(k)`` by slicing (copying) the whole blob list
under one lock and re-packing each blob into the response — O(n) per
request.  The sharded database answers the same request from precomposed
per-segment byte caches: O(segments) chunk lookups and one join.  This
benchmark measures both paths on identical data so the speedup is
attributable to the storage layer alone.

The second experiment holds ≥1,000 simultaneous *persistent* TCP
connections against the event-driven transport (the paper's Fig. 2 client
regime) — impossible for the seed's thread-per-connection transport at
this scale without 1,000 OS threads — and records the server's actual
thread growth.

Results land in ``benchmarks/results/get_scaling.txt`` and, machine
readable, in ``BENCH_get_scaling.json`` at the repository root.

Set ``COMMUNIX_BENCH_SMOKE=1`` for a CI-sized run.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from pathlib import Path

import pytest

from benchmarks.bench_fig2_server_throughput import random_signature
from benchmarks.conftest import bench_json_path, write_artifact
from repro.client.endpoints import SocketEndpoint
from repro.crypto.userid import UserIdAuthority
from repro.server.database import SignatureDatabase
from repro.server.protocol import (
    count_get_page,
    encode_get_page_response,
    get_page_response_parts,
    pack_signature_record,
)
from repro.server.server import CommunixServer, ServerConfig
from repro.server.transport import ServerTransport
from repro.util.clock import ManualClock

SMOKE = os.environ.get("COMMUNIX_BENCH_SMOKE") == "1"
SIZES = (500, 2_000) if SMOKE else (1_000, 10_000)
N_CONNECTIONS = 200 if SMOKE else 1_000
CLIENT_THREADS = 16
REQUESTS_PER_CONNECTION = 3

_REPO_ROOT = Path(__file__).resolve().parent.parent
_results: dict = {"sizes": {}}


def build_database(size: int) -> tuple[SignatureDatabase, list[bytes]]:
    rng = random.Random(size)
    db = SignatureDatabase()
    blobs: list[bytes] = []
    while len(blobs) < size:
        sig = random_signature(rng)
        if db.contains(sig.sig_id):
            continue
        blob = sig.to_bytes()
        db.append(sig, blob, len(blobs))
        blobs.append(blob)
    return db, blobs


def seed_path_get(blobs: list[bytes]) -> bytes:
    """The seed's hot path, verbatim: slice-copy the blob list, then pack
    every blob into the response the transport will send."""
    copied = blobs[0:]
    return encode_get_page_response(
        len(copied), len(copied), map(pack_signature_record, copied), False
    )


def segment_path_get(db: SignatureDatabase) -> list[bytes]:
    """The new hot path, verbatim: cached per-segment chunks assembled
    into the parts list the transport hands to vectored ``sendmsg`` — no
    per-blob work, no payload copy."""
    return get_page_response_parts(*db.wire_from(0, len(db)))


def throughput(fn, min_seconds: float = 0.5, min_rounds: int = 5) -> float:
    fn()  # warm caches outside the timed region
    rounds = 0
    started = time.perf_counter()
    while True:
        fn()
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed >= min_seconds and rounds >= min_rounds:
            return rounds / elapsed


@pytest.mark.parametrize("size", SIZES)
def test_get_scaling(benchmark, size, results_dir):
    db, blobs = build_database(size)
    reference = seed_path_get(blobs)
    assert b"".join(segment_path_get(db)) == reference  # identical wire bytes

    seed_rps = throughput(lambda: seed_path_get(blobs))
    segment_rps = benchmark.pedantic(
        lambda: throughput(lambda: segment_path_get(db)),
        rounds=1, iterations=1,
    )
    speedup = segment_rps / seed_rps
    _results["sizes"][str(size)] = {
        "signatures": size,
        "response_bytes": len(reference),
        "segments": db.segment_count,
        "seed_path_gets_per_s": round(seed_rps, 1),
        "segment_cache_gets_per_s": round(segment_rps, 1),
        "speedup": round(speedup, 2),
    }
    benchmark.extra_info.update(_results["sizes"][str(size)])
    assert segment_rps > seed_rps


def test_concurrent_persistent_connections(results_dir):
    """≥1,000 simultaneous persistent connections served by one event loop
    and a bounded worker pool — not one thread per connection."""
    server = CommunixServer(
        authority=UserIdAuthority(rng=random.Random(99)),
        clock=ManualClock(start=1_000_000.0),
        config=ServerConfig(),
    )
    # Preload so every GET moves real data.
    db, _ = build_database(SIZES[0])
    server.database = db
    transport = ServerTransport(server, accept_backlog=2048, workers=8)
    transport.start()
    url = transport.bound_endpoints[0].url()
    threads_before = threading.active_count()

    per_thread = N_CONNECTIONS // CLIENT_THREADS
    counts = [per_thread] * CLIENT_THREADS
    counts[-1] += N_CONNECTIONS - per_thread * CLIENT_THREADS
    all_connected = threading.Barrier(CLIENT_THREADS + 1)
    go = threading.Event()
    completed = []
    lock = threading.Lock()
    errors = []

    def client(n_conns: int) -> None:
        endpoints = [SocketEndpoint(url, io_timeout=60.0)
                     for _ in range(n_conns)]
        try:
            for endpoint in endpoints:
                endpoint.issue_token()  # connect + one roundtrip
            all_connected.wait(timeout=60.0)
            go.wait(timeout=60.0)
            done = 0
            for _ in range(REQUESTS_PER_CONNECTION):
                for endpoint in endpoints:
                    count_get_page(endpoint.get_raw(0, 64))
                    done += 1
            with lock:
                completed.append(done)
        except Exception as exc:  # pragma: no cover - surfaced via assert
            with lock:
                errors.append(repr(exc))
        finally:
            for endpoint in endpoints:
                endpoint.close()

    workers = [threading.Thread(target=client, args=(c,), daemon=True)
               for c in counts]
    for t in workers:
        t.start()
    all_connected.wait(timeout=120.0)
    held_connections = transport.connection_count
    server_thread_delta = threading.active_count() - threads_before \
        - len(workers)
    started = time.perf_counter()
    go.set()
    for t in workers:
        t.join(timeout=300.0)
    elapsed = time.perf_counter() - started
    transport.stop()

    assert not errors, errors[:3]
    total_requests = sum(completed)
    _results["concurrent_connections"] = {
        "connections": N_CONNECTIONS,
        "held_simultaneously": held_connections,
        "requests": total_requests,
        "requests_per_s": round(total_requests / elapsed, 1),
        "server_thread_delta_at_peak": server_thread_delta,
    }
    assert held_connections >= N_CONNECTIONS
    # Event loop + worker pool, not thread-per-connection.
    assert server_thread_delta <= 16


def test_write_results(results_dir):
    """Emit the artifact and the BENCH_*.json entry (runs last)."""
    lines = [
        "GET scaling — seed list-copy path vs. sharded segment-cache path",
        "size  response_MB  segments  seed_gets/s  cached_gets/s  speedup",
    ]
    for size, row in _results["sizes"].items():
        lines.append(
            f"{size:>6}  {row['response_bytes'] / 1e6:9.2f}  "
            f"{row['segments']:8d}  {row['seed_path_gets_per_s']:11.1f}  "
            f"{row['segment_cache_gets_per_s']:13.1f}  {row['speedup']:7.2f}x"
        )
    conns = _results.get("concurrent_connections")
    if conns:
        lines.append(
            f"persistent connections: {conns['held_simultaneously']} held, "
            f"{conns['requests_per_s']} req/s, "
            f"+{conns['server_thread_delta_at_peak']} server threads"
        )
    write_artifact(results_dir, "get_scaling.txt", lines)
    payload = {
        "benchmark": "get_scaling",
        "smoke": SMOKE,
        **_results,
    }
    out = bench_json_path("BENCH_get_scaling")
    out.write_text(json.dumps(payload, indent=2) + "\n")
