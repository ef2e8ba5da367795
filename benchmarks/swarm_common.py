"""Shared machinery for swarm-driven benchmarks.

The big sweeps put the server in a **child process** (mirroring the
paper's server-on-one-machine / clients-on-another setup) for an FD
reason too: this container caps a process at 20,000 descriptors, and a
10,000-client point needs ~10k sockets on *each* side of the loopback —
they only fit if the two sides are separate processes.  The federated
sweeps go one step further and split the client side over several worker
processes (see :mod:`repro.loadgen.federation`), with the server child on
a ``unix://`` endpoint to skip loopback-TCP overhead.
"""

from __future__ import annotations

import contextlib
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.net import Endpoint, parse_endpoint

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"


@contextlib.contextmanager
def swarm_server(quota_per_day: int = 1000, idle_timeout: float = 600.0,
                 backlog: int = 4096, workers: int = 4,
                 startup_timeout: float = 30.0, addr: str | None = None,
                 server_args: list[str] | None = None):
    """A ``python -m repro.server`` child; yields its bound
    :class:`~repro.net.Endpoint` (``tcp://127.0.0.1:0`` by default, or any
    ``addr`` endpoint URL such as ``unix:///tmp/x.sock``).  Extra CLI
    flags — ``--no-metrics``, ``--metrics-log``, ``--slow-request-ms`` —
    go in ``server_args``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.server",
            "--addr", addr or "tcp://127.0.0.1:0",
            "--quota-per-day", str(quota_per_day),
            "--idle-timeout", str(idle_timeout),
            "--backlog", str(backlog),
            "--workers", str(workers),
            *(server_args or []),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    try:
        deadline = time.monotonic() + startup_timeout
        # Raw-fd reads, not readline(): a child that prints several
        # startup lines in one write (the federation coordinator does)
        # would land them all in the TextIO buffer on the first read,
        # and select() on the drained fd would then block forever.
        stdout_fd = proc.stdout.fileno()
        pending = b""
        address = None
        while address is None:
            newline = pending.find(b"\n")
            if newline >= 0:
                raw, pending = pending[:newline], pending[newline + 1:]
                line = raw.decode("utf-8", "replace")
                if line.startswith("communix-server listening on"):
                    address = line.split("listening on", 1)[1].split()[0]
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server did not report its address in time")
            # Poll the pipe so a wedged server fails fast instead.
            ready, _, _ = select.select([stdout_fd], [], [],
                                        min(remaining, 0.5))
            if not ready:
                if proc.poll() is not None:
                    raise RuntimeError("server process exited during startup")
                continue
            chunk = os.read(stdout_fd, 65536)
            if not chunk:
                if proc.poll() is not None:
                    raise RuntimeError("server process exited during startup")
                continue
            pending += chunk
        yield parse_endpoint(address)
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=5.0)
        proc.stdout.close()


def wait_for_barrier(engine, expected: int, timeout: float) -> None:
    """Block until every live client is parked at the start barrier."""
    engine.wait_barrier(expected, timeout=timeout)


def server_metrics_summary(metrics_log_path: str) -> dict | None:
    """Compact server-side section for a bench artifact, from the final
    line of a ``--metrics-log`` file (written at server shutdown, after
    the graceful drain, so it covers every request the child served).

    Stage histograms are collapsed to their percentile summaries; raw
    counters and gauges ride along whole.
    """
    from repro.obs import Histogram, last_snapshot_line

    snapshot = last_snapshot_line(metrics_log_path)
    if snapshot is None:
        return None
    histograms = snapshot.get("histograms", {})
    return {
        "counters": snapshot.get("counters", {}),
        "gauges": snapshot.get("gauges", {}),
        "stages": {
            name: Histogram.from_wire(wire).summary()
            for name, wire in sorted(histograms.items())
        },
        "attribution": stage_attribution(histograms),
    }


def stage_attribution(histograms: dict) -> dict:
    """Per-stage share of total handler time, from stage histograms.

    For each ``stage.<name>`` histogram, report the stage's cumulative
    seconds and its fraction of the cumulative ``stage.handler`` seconds
    — "where did the server's request time actually go".  Stages that
    nest inside another (wal_fsync inside db_append, group_commit inside
    wal_fsync) will overlap; shares answer "how much of a typical
    request touched this stage", not a partition summing to 1.
    """
    totals = {
        name[len("stage."):]: float(wire.get("total", 0.0))
        for name, wire in histograms.items()
        if name.startswith("stage.")
    }
    handler_total = totals.get("handler", 0.0)
    attribution = {}
    for stage in sorted(totals):
        entry = {"total_s": round(totals[stage], 6)}
        if handler_total > 0.0 and stage != "handler":
            entry["share_of_handler"] = round(totals[stage] / handler_total, 4)
        attribution[stage] = entry
    return attribution
