#!/usr/bin/env python3
"""The repository's benchmark: four workloads against a real server child.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--out FILE]

Starts ``python -m repro.server`` with shipped defaults, pinned to one
CPU, and drives it closed-loop from this process, pinned to another.
``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
driver spans off; ``--trace 1`` measures the per-layer metrics (driver
spans, STATS diffs over the wire, the in-process ladder) and writes
``bench/out/trace-<workload>.jsonl``.  Every run verifies the server's
outputs and exits non-zero when a check fails.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

if not (SRC / "repro").is_dir():
    sys.exit(f"error: {SRC}/repro not found: the benchmark measures the "
             "program in this checkout and cannot run without it")
sys.path.insert(0, str(SRC))

import child as childmod  # noqa: E402
import ladder  # noqa: E402
import traffic  # noqa: E402
from repro.client import CommunixClient, SocketEndpoint  # noqa: E402
from repro.core.repository import LocalRepository  # noqa: E402
from repro.loadgen.signatures import random_signature_blobs  # noqa: E402
from repro.net import dial  # noqa: E402
from repro.server.protocol import pack_signature_record  # noqa: E402
from repro.server.server import CommunixServer, ServerConfig  # noqa: E402
from repro.store import SignatureStore  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

N_CLIENTS = 2
WARMUP_S = 2.0
SETUP_CYCLES = 5
#: ADDs a cold_sync run makes after its drain window, so that
#: ``add_p50_ms`` exists on the read-only workload too.
COLD_PROBE_CYCLES = 1000


@dataclasses.dataclass(frozen=True)
class Workload:
    kind: str            # which client class drives it
    durable: bool        # server runs on --data-dir (fsync always)
    unix: bool           # unix:// instead of tcp://127.0.0.1
    preload: int         # signatures in the data dir before the server starts
    adds_per_s: int      # pool budget: fresh signatures per second of load


WORKLOADS = {
    "steady_mem": Workload("steady", False, False, 0, 3000),
    "steady_durable": Workload("steady", True, False, 0, 2000),
    "cold_sync": Workload("cold", True, False, 16384, 0),
    "session_churn": Workload("churn", False, True, 0, 1500),
}
SMOKE_PRELOAD = 512


# ----------------------------------------------------------- one server
class Rig:
    """A server child and the two clients that load it."""

    _serial = itertools.count()

    def __init__(self, ctx: "Context", extra_args: tuple[str, ...] = (),
                 data_dir: Path | None = None):
        self.ctx = ctx
        workload = ctx.workload
        if workload.unix:
            # Abstract namespace: no path-length limit inherited from
            # wherever the checkout lives, nothing to unlink after SIGKILL.
            listen = f"unix://@communix-bench-{os.getpid()}-{next(self._serial)}"
        else:
            listen = "tcp://127.0.0.1:0"
        args = list(extra_args)
        self.data_dir = data_dir
        if data_dir is not None:
            args += ["--data-dir", str(data_dir)]
        self.child = childmod.ServerChild(
            SRC, listen, args, ctx.server_cpu, ctx.tmp / "server.log")
        self.clients: list = []
        self.recorders: list[traffic.Recorder] = []
        self.acked: dict[int, bytes] = {}

    def start(self) -> float:
        """Spawn the child; seconds until its first successful reply."""
        return childmod.timed_start(self.child, self.ctx.workload.preload)

    def connect(self) -> None:
        ctx, url = self.ctx, self.child.url
        self.recorders = [traffic.Recorder(conn=i) for i in range(N_CLIENTS)]
        kind = ctx.workload.kind
        for rec in self.recorders:
            if kind == "steady":
                client = traffic.SteadyClient(url, rec, ctx.pool, self.acked)
            elif kind == "churn":
                client = traffic.ChurnClient(url, rec, ctx.pool, self.acked)
            else:
                client = traffic.ColdSyncClient(
                    url, rec, ctx.workload.preload, ctx.preload_sha256)
            self.clients.append(client)

    def window(self, seconds: float, concurrent: bool = False,
               spans: bool = False) -> "Measured":
        for rec in self.recorders:
            rec.reset()
            rec.keep_spans = spans
        run = traffic.run_concurrent if concurrent else traffic.run_serial
        cpu_before = self.child.cpu_seconds()
        result = run(self.clients, seconds)
        server_cpu = self.child.cpu_seconds() - cpu_before
        measured = Measured(result, list(self.recorders), server_cpu)
        self.ctx.windows.append(measured)
        return measured

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        self.child.kill()


class Measured:
    """One window's samples, reduced on demand."""

    def __init__(self, result: traffic.WindowResult, recorders, server_cpu):
        self.result = result
        self.server_cpu = server_cpu
        self.latencies = {
            op: traffic.merged(recorders, op)
            for op in ("add", "get", "issue", "connect")
        }
        self.spans = [span for rec in recorders for span in rec.spans]
        self.attempted = sum(rec.attempted for rec in recorders)
        self.completed = sum(rec.completed for rec in recorders)
        self.sigs = sum(rec.sigs for rec in recorders)
        self.failed = self.attempted - self.completed + sum(
            rec.wrong for rec in recorders)

    @property
    def req_per_s(self) -> float:
        return self.completed / self.result.elapsed

    @property
    def sigs_per_s(self) -> float:
        return self.sigs / self.result.elapsed

    def request_seconds(self) -> float:
        return sum(sum(self.latencies[op]) for op in ("add", "get", "issue"))

    def max_ms(self) -> float:
        return 1000.0 * max(max(samples, default=0.0)
                            for samples in self.latencies.values())


# ------------------------------------------------------------- one run
class Context:
    """Everything one workload run shares: inputs, placement, scratch."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, affinity: tuple[int, int] | None):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        workload = WORKLOADS[name]
        if smoke and workload.preload:
            workload = dataclasses.replace(workload, preload=SMOKE_PRELOAD)
        self.workload = workload
        self.warmup = 0.2 if smoke else WARMUP_S
        self.ladder_blobs = 1024 if smoke else ladder.BLOBS_NEEDED
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=OUT, prefix=f"run-{name}-"))
        self.server_cpu, self.driver_cpu = affinity or (None, None)
        self.pool = iter(())
        self.pool_size = 0
        self.preload_blobs: list[bytes] = []
        self.preload_sha256 = ""
        self.prebuilt: Path | None = None
        self.prepare_s = 0.0
        self.rigs: list[Rig] = []
        #: Every window driven in this run, warm-ups and side readings
        #: included: all of them count toward attempted/failed.
        self.windows: list[Measured] = []

    def load_seconds(self) -> float:
        """Seconds of load this run will generate, for sizing the pool."""
        if not self.trace:
            return self.warmup + self.seconds
        # Main child: both halves of the window.  Side children: two
        # quarters for two-in-flight, four for the obs pair, each child
        # warmed up for half the usual time.
        return 2.5 * (self.warmup + self.seconds)

    def prepare(self) -> None:
        """Generate every input from the seed, before anything is timed."""
        started = time.perf_counter()
        workload = self.workload
        pool_size = int(workload.adds_per_s * self.load_seconds())
        if workload.kind == "cold":
            pool_size = N_CLIENTS * COLD_PROBE_CYCLES
        if self.trace:
            pool_size += self.ladder_blobs
        blobs = random_signature_blobs(workload.preload + pool_size, self.seed)
        self.preload_blobs = blobs[:workload.preload]
        self.pool = iter(blobs[workload.preload:])
        self.pool_size = pool_size
        if workload.preload:
            self.prebuilt = self.tmp / "prebuilt"
            self.preload_sha256 = prebuild(self.prebuilt, self.preload_blobs)
        self.prepare_s = time.perf_counter() - started

    def rig(self, extra_args: tuple[str, ...] = ()) -> Rig:
        data_dir = None
        if self.workload.durable:
            data_dir = Path(tempfile.mkdtemp(dir=self.tmp, prefix="data-"))
            if self.prebuilt is not None:
                # Each server needs the preload to itself: the store
                # appends to the directory it opens.
                shutil.copytree(self.prebuilt, data_dir, dirs_exist_ok=True)
        rig = Rig(self, extra_args, data_dir)
        self.rigs.append(rig)
        return rig

    def errors(self) -> list[str]:
        return [e for window in self.windows for e in window.result.errors]

    def cleanup(self) -> None:
        for rig in self.rigs:
            rig.close()
        shutil.rmtree(self.tmp, ignore_errors=True)


def prebuild(data_dir: Path, blobs: list[bytes]) -> str:
    """Fill a data dir through the server's own ADD path and close it
    cleanly; returns the SHA-256 of the records as GET will send them.
    ``fsync never``: the clean close flushes, and nothing is timed here."""
    server = CommunixServer(ServerConfig(data_dir=str(data_dir),
                                         fsync_policy="never"))
    try:
        token = ""
        for i, blob in enumerate(blobs):
            if i % traffic.ADDS_PER_TOKEN == 0:
                token = server.issue_user_token()
            outcome = server.process_add(blob, token)
            if not outcome.accepted or outcome.index != i:
                raise RuntimeError(f"preload ADD {i} failed: {outcome}")
    finally:
        server.close()
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(pack_signature_record(blob))
    return digest.hexdigest()


def measure_setup(ctx: Context, cycles: int) -> tuple[list[float], Rig]:
    """Spawn → first reply, ``cycles`` times; the last child stays up."""
    rig = ctx.rig()
    times = []
    for cycle in range(cycles):
        if cycle:
            rig.child.kill()
        times.append(rig.start())
    return times, rig


def mount_fstype(path: Path) -> str:
    best, fstype = "", "unknown"
    for line in Path("/proc/mounts").read_text().splitlines():
        _, mount, kind = line.split()[:3]
        if str(path).startswith(mount) and len(mount) > len(best):
            best, fstype = mount, kind
    return fstype


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # the driver's checkout is not a git repository


def fingerprint(ctx: Context, rig: Rig) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": ({"server": ctx.server_cpu, "driver": ctx.driver_cpu}
                     if ctx.server_cpu is not None else None),
        "crypto_backend": rig.child.crypto_backend,
        "transport": ("unix-abstract" if ctx.workload.unix
                      else "tcp-loopback"),
        "tmp_fs": mount_fstype(ctx.tmp),
        "seed": ctx.seed,
        "clients": N_CLIENTS,
        "in_flight": 1,
    }


def cold_add_probe(ctx: Context, rig: Rig) -> Measured:
    """The drain window holds no ADD, so ``add_p50_ms`` on cold_sync comes
    from a short run of ADD→GET cycles after it, against the same durable
    server with its 16k signatures."""
    recorders = [traffic.Recorder(conn=i) for i in range(N_CLIENTS)]
    probes = [traffic.SteadyClient(rig.child.url, rec, ctx.pool, rig.acked,
                                   cursor=ctx.workload.preload)
              for rec in recorders]
    try:
        result = traffic.run_serial(probes, childmod.READY_TIMEOUT_S,
                                    max_cycles=N_CLIENTS * COLD_PROBE_CYCLES)
    finally:
        for client in probes:
            client.close()
    measured = Measured(result, recorders, 0.0)
    ctx.windows.append(measured)
    return measured


# ------------------------------------------------------- traced extras
def stats_diff(before: dict, after: dict, window: Measured) -> dict[str, float]:
    """Per-request costs from the server's own registry over one window."""
    def counter(name: str) -> float:
        return (after["metrics"]["counters"][name]
                - before["metrics"]["counters"][name])

    def total(name: str) -> float:
        hist_after = after["metrics"]["histograms"].get(name, {})
        hist_before = before["metrics"]["histograms"].get(name, {})
        return hist_after.get("total", 0.0) - hist_before.get("total", 0.0)

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    requests = window.completed
    rtt_us = window.request_seconds() / requests * 1e6
    handler_us = total("stage.handler") / requests * 1e6
    queue_us = total("stage.queue_wait") / requests * 1e6
    flush_us = total("stage.flush") / requests * 1e6
    busy, idle = total("loop.lag"), total("loop.select_wait")
    adds = counter("adds_accepted")
    return {
        "validation.token_cache_hit_ratio": ratio(
            counter("token_cache.hits"), counter("token_cache.misses")),
        "database.page_cache_hit_ratio": ratio(
            counter("db.page_cache_hits"), counter("db.page_cache_misses")),
        "store.wal_fsync_us_per_add":
            total("stage.wal_fsync") / adds * 1e6 if adds else 0.0,
        "server.handler_us_per_req": handler_us,
        "transport.wire_overhead_us": rtt_us - handler_us,
        "transport.unexplained_us": rtt_us - handler_us - queue_us - flush_us,
        "transport.loop_iterations_per_req":
            counter("loop.iterations") / requests,
        "transport.queue_wait_us_per_req": queue_us,
        "transport.flush_us_per_req": flush_us,
        "transport.loop_busy_ratio": ratio(busy, idle),
        "transport.stalls": counter("loop.stalls"),
    }


def connect_us(url: str, count: int = 200) -> float:
    samples = []
    for _ in range(count):
        started = time.perf_counter()
        sock = dial(url, timeout=childmod.IO_TIMEOUT_S)
        samples.append(time.perf_counter() - started)
        sock.close()
    return statistics.median(samples) * 1e6


def client_sync(url: str, expect: int) -> float:
    """A real client daemon's cold poll into an empty repository."""
    endpoint = SocketEndpoint(url)
    client = CommunixClient(endpoint, LocalRepository())
    try:
        started = time.perf_counter()
        report = client.poll_once()
        elapsed = time.perf_counter() - started
    finally:
        endpoint.close()
    if report.failed or report.stored != expect:
        raise traffic.CheckFailed(
            f"client sync stored {report.stored} of {expect}: {report.error}")
    return report.stored / elapsed


def side_rig(ctx: Context, extra_args: tuple[str, ...] = ()) -> Rig:
    """A fresh, warmed-up child for a side reading."""
    rig = ctx.rig(extra_args)
    rig.start()
    rig.connect()
    rig.window(ctx.warmup / 2)
    return rig


def obs_cost_pct(ctx: Context) -> float:
    """Throughput the metrics registry costs on this workload: default
    against ``--no-metrics``, fresh children, windows in ABBA order so a
    drift over the pair cancels."""
    default, bare = side_rig(ctx), side_rig(ctx, ("--no-metrics",))
    rates = {default: [], bare: []}
    for rig in (default, bare, bare, default):
        rates[rig].append(rig.window(ctx.seconds / 4).req_per_s)
    default.close()
    bare.close()
    without = statistics.mean(rates[bare])
    return (without - statistics.mean(rates[default])) / without * 100.0


def two_in_flight(ctx: Context) -> dict[str, float]:
    """The same traffic with both clients sending at once, against one
    request in flight on the same child just before.  On its own child:
    the transport's lost wakeup, once hit, slows every later request, so
    nothing else may be measured after this."""
    rig = side_rig(ctx)
    serial = rig.window(ctx.seconds / 4)
    both = rig.window(ctx.seconds / 4, concurrent=True)
    rig.close()
    return {
        "transport.conc2_req_per_s": both.req_per_s,
        "transport.conc2_ratio": both.req_per_s / serial.req_per_s,
        "driver.conc2_max_ms": both.max_ms(),
    }


def traced_window(ctx: Context, rig: Rig, untraced: Measured,
                  spans: ladder.Spans) -> dict[str, float]:
    """The traced half of the main window: driver spans on, the server's
    registry read over the wire before and after."""
    url = rig.child.url
    before = childmod.stats(url)
    traced = rig.window(ctx.seconds / 2, spans=True)
    after = childmod.stats(url)
    for op, conn, started, ended in traced.spans:
        spans.add(f"driver.{op}", started, ended, conn=conn)
    layer = stats_diff(before, after, traced)
    layer["server.cpu_ratio"] = traced.server_cpu / traced.result.elapsed
    layer["server.rss_mb"] = rig.child.rss_hwm_mb()
    layer["driver.trace_overhead_pct"] = (
        (untraced.req_per_s - traced.req_per_s) / untraced.req_per_s * 100.0)
    spans.rows.append({"stats_diff": layer, "requests": traced.completed})
    layer["transport.connect_us"] = connect_us(url)
    size = childmod.stats(url, version=1)["database_size"]
    layer["client.sync_sigs_per_s"] = client_sync(url, size)
    return layer


# --------------------------------------------------------------- checks
def verify(ctx: Context, rig: Rig, cold_clients) -> dict[str, bool]:
    """The server's outputs against what was sent; each failing check
    fails the run."""
    checks: dict[str, bool] = {}
    expected = dict(enumerate(ctx.preload_blobs))
    expected.update(rig.acked)
    drained = traffic.drain_all(rig.child.url)
    checks["final_drain_count"] = len(drained) == len(expected)
    checks["final_drain_bytes"] = all(
        index < len(drained) and drained[index] == blob
        for index, blob in expected.items())
    if cold_clients:
        checks["cold_drains_hashed"] = all(
            client.hashed_drains > 0 for client in cold_clients)
    if ctx.workload.durable:
        rig.child.kill()  # kill -9: only fsynced bytes may be relied on
        store = SignatureStore(str(rig.data_dir))
        try:
            recovered = {e.index: e.blob for e in store.recovered_entries()}
        finally:
            store.close(final_checkpoint=False)
        checks["durable_reopen"] = all(
            recovered.get(index) == blob for index, blob in expected.items())
    return checks


# ------------------------------------------------------------ reporting
def tail_table(window: Measured) -> dict:
    table = {op: traffic.supported_tail(samples)
             for op, samples in window.latencies.items() if samples}
    table["max_ms"] = window.max_ms()
    return table


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, affinity: tuple[int, int] | None) -> dict:
    ctx = Context(name, seed, seconds, trace, smoke, affinity)
    try:
        return _run(ctx)
    finally:
        ctx.cleanup()


def _run(ctx: Context) -> dict:
    ctx.prepare()
    cycles = 1 if (ctx.trace or ctx.smoke) else SETUP_CYCLES
    setup_times, rig = measure_setup(ctx, cycles)
    rig.connect()
    env = fingerprint(ctx, rig)

    rig.window(ctx.warmup)
    main = rig.window(ctx.seconds / 2 if ctx.trace else ctx.seconds)
    rss_mb = rig.child.rss_hwm_mb()
    spans = ladder.Spans()
    per_layer: dict[str, float] = {}
    if ctx.trace:
        per_layer = traced_window(ctx, rig, main, spans)

    cold_clients = rig.clients if ctx.workload.kind == "cold" else []
    add_samples = main.latencies["add"]
    if cold_clients:
        add_samples = cold_add_probe(ctx, rig).latencies["add"]

    # A failed operation already fails the run; verifying a server that
    # dropped a connection would only bury that first error.
    checks = {} if ctx.errors() else verify(ctx, rig, cold_clients)
    rig.close()

    if ctx.trace:
        per_layer.update(two_in_flight(ctx))
        per_layer["obs.cost_pct"] = obs_cost_pct(ctx)
        # No child is left running; the rungs are timed on the CPU the
        # server ran on, so they can be set against its own stage timers.
        if ctx.server_cpu is not None:
            os.sched_setaffinity(0, {ctx.server_cpu})
        try:
            per_layer.update(ladder.measure(
                list(itertools.islice(ctx.pool, ctx.ladder_blobs)),
                ctx.tmp, spans))
        finally:
            if ctx.driver_cpu is not None:
                os.sched_setaffinity(0, {ctx.driver_cpu})
        per_layer.update({
            "driver.add_p99_ms": traffic.percentile_ms(add_samples, 99.0),
            "driver.get_p99_ms": traffic.percentile_ms(
                main.latencies["get"], 99.0),
            "driver.max_ms": main.max_ms(),
            "driver.cpu_ratio": main.result.cpu_seconds / main.result.elapsed,
            "driver.prepare_s": ctx.prepare_s,
        })
        with open(OUT / f"trace-{ctx.name}.jsonl", "w") as out:
            for row in spans.rows:
                out.write(json.dumps(row) + "\n")

    errors = ctx.errors()
    attempted = sum(window.attempted for window in ctx.windows)
    failed = sum(window.failed for window in ctx.windows)
    pool_exhausted = any(w.result.pool_exhausted for w in ctx.windows)
    checks["no_failed_operation"] = failed == 0 and not errors

    end_to_end = {
        "req_per_s": main.req_per_s,
        "sigs_per_s": main.sigs_per_s,
        "add_p50_ms": traffic.median_ms(add_samples),
        "get_p50_ms": traffic.median_ms(main.latencies["get"]),
        "setup_s": statistics.median(setup_times),
    }
    return {
        "schema": 1,
        "workload": ctx.name,
        "trace": ctx.trace,
        "fingerprint": env,
        "windows": {
            "warmup_s": ctx.warmup,
            "window_s": main.result.elapsed,
            "setup_cycles": cycles,
            "pool_size": ctx.pool_size,
            "pool_exhausted": pool_exhausted,
        },
        "samples": {op: len(samples)
                    for op, samples in main.latencies.items()},
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "errors": errors,
        "checks": checks,
        "correct": all(checks.values()),
        "end_to_end": with_units(end_to_end, SPEC["end_to_end"]),
        "per_layer": (with_units(per_layer, SPEC["per_layer"])
                      if ctx.trace else {}),
        "driver": {
            "tails": tail_table(main),
            "cpu_ratio": main.result.cpu_seconds / main.result.elapsed,
            "server_rss_mb": rss_mb,
            "prepare_s": ctx.prepare_s,
            "setup_s_all": setup_times,
        },
        "claim": None,
    }


def with_units(values: dict[str, float], declared: list[dict]) -> dict:
    """``values`` as the metrics ``BENCHMARK.json`` declares, no more and
    no fewer (a missing one is a bug in this file)."""
    return {spec["name"]: {"value": values[spec["name"]],
                           "unit": spec["unit"]}
            for spec in declared}


def print_record(record: dict) -> None:
    name = record["workload"]
    print(f"== {name} (seed {record['fingerprint']['seed']}, "
          f"window {record['windows']['window_s']:.1f} s, "
          f"trace {int(record['trace'])})")
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    for section in ("end_to_end", "per_layer"):
        for metric, entry in record[section].items():
            print(f"{metric:38s} {name:15s} "
                  f"{entry['value']:14.4f} {entry['unit']}")
    print(f"{'fail_ratio':38s} {name:15s} {record['fail_ratio']:14.4f} "
          f"({record['failed']} of {record['attempted']})")
    for op, tail in record["driver"]["tails"].items():
        if op != "max_ms":
            print(f"driver.{op}_p{tail['pct']:g}_ms".ljust(38)
                  + f" {name:15s} {tail['ms']:14.4f} ms (n={tail['n']})")
    if record["driver"]["cpu_ratio"] > 0.9:
        print("warning: driver CPU above 0.9 of wall: generator-bound")
    if record["windows"]["pool_exhausted"]:
        print("warning: signature pool exhausted; the window ended early")
    coverage = record["per_layer"].get("server.ladder_coverage")
    if coverage and not 0.8 <= coverage["value"] <= 1.2:
        print("warning: server.ladder_coverage outside 0.8-1.2")
    for check, passed in record["checks"].items():
        print(f"check {check}: {'ok' if passed else 'FAILED'}")
    for error in record["errors"]:
        print(f"error: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: per-layer metrics and span files")
    parser.add_argument("--smoke", action="store_true",
                        help="schema check only: one set-up cycle, short "
                             "warm-up, 512-signature cold_sync")
    parser.add_argument("--out", metavar="FILE",
                        help="append each full result record as a JSON line")
    args = parser.parse_args(argv)

    affinity = childmod.plan_affinity()
    if affinity:
        os.sched_setaffinity(0, {affinity[1]})
    names = [args.workload] if args.workload else list(WORKLOADS)
    status = 0
    for name in names:
        record = run_workload(name, args.seed, args.seconds,
                              bool(args.trace), args.smoke, affinity)
        print_record(record)
        if args.out:
            with open(args.out, "a") as out:
                out.write(json.dumps(record) + "\n")
        if not record["correct"]:
            status = 1
        section = "per_layer" if args.trace else "end_to_end"
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record[section],
        }))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
