"""The server under test: a ``python -m repro.server`` child process.

The benchmark measures the program as shipped, so the child gets no
flags beyond its listen address and (for the durable workloads) a data
directory — 8 workers, metrics on, quota 10/day, adjacency check on and
``--fsync always`` are the CLI's own defaults.  The child is pinned to
one CPU and the driver to another, so the load generator never competes
with the server for a core (the flaw ROADMAP names in the old swarm
numbers).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.client import SocketEndpoint

#: A child that has not printed its address after this long is killed.
READY_TIMEOUT_S = 60.0
#: Socket timeout for every benchmark connection: a request that takes
#: longer counts as failed instead of hanging the run.
IO_TIMEOUT_S = 10.0


def plan_affinity() -> tuple[int, int] | None:
    """``(server_cpu, driver_cpu)``, or ``None`` when fewer than two CPUs
    are available and pinning apart is impossible."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return cpus[0], cpus[1]


def stats(url: str, version: int = 2) -> dict:
    """One STATS round trip on a fresh connection."""
    endpoint = SocketEndpoint(url, io_timeout=IO_TIMEOUT_S)
    try:
        return endpoint.stats(version)
    finally:
        endpoint.close()


class ServerChild:
    """One server process: spawn, wait for its address, inspect, kill."""

    def __init__(self, src_dir: Path, listen_url: str, extra_args: list[str],
                 cpu: int | None, log_path: Path):
        self._argv = [sys.executable, "-m", "repro.server",
                      "--addr", listen_url, *extra_args]
        self._env = dict(os.environ, PYTHONPATH=str(src_dir))
        self._cpu = cpu
        self._log_path = log_path
        self._proc: subprocess.Popen | None = None
        self.url = ""
        self.crypto_backend = ""

    @property
    def pid(self) -> int:
        return self._proc.pid

    def start(self) -> None:
        """Spawn the child and block until it prints its bound address."""
        with open(self._log_path, "ab") as log:
            self._proc = subprocess.Popen(
                self._argv, env=self._env, stdout=subprocess.PIPE,
                stderr=log, text=True,
            )
        if self._cpu is not None:
            # Before the child has imported anything: the loop thread and
            # the worker pool it creates later inherit the mask.
            os.sched_setaffinity(self._proc.pid, {self._cpu})
        watchdog = threading.Timer(READY_TIMEOUT_S, self._proc.kill)
        watchdog.start()
        try:
            for line in self._proc.stdout:
                if "listening on " in line:
                    address = line.split("listening on ", 1)[1].split()[0]
                    self.url = (address if "://" in address
                                else f"tcp://{address}")
                    self.crypto_backend = (
                        line.rsplit("crypto backend ", 1)[1].strip(" )\n"))
                    return
        finally:
            watchdog.cancel()
        self.kill()
        raise RuntimeError(
            f"server child exited before listening (see {self._log_path})")

    def kill(self) -> None:
        """SIGKILL and reap — the crash the durability check relies on."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.kill()
        proc.wait()
        proc.stdout.close()

    def rss_hwm_mb(self) -> float:
        """Peak resident set (``VmHWM``) of the child so far."""
        status = Path(f"/proc/{self.pid}/status").read_text()
        kb = int(status.split("VmHWM:", 1)[1].split()[0])
        return kb / 1024.0

    def cpu_seconds(self) -> float:
        """User + system CPU the child has consumed so far."""
        fields = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1]
        utime, stime = fields.split()[11:13]
        return (int(utime) + int(stime)) / os.sysconf("SC_CLK_TCK")


def timed_start(child: ServerChild, expect_size: int) -> float:
    """Seconds from spawn to the first successful reply — what an operator
    waits for after ``systemctl restart`` (includes log recovery)."""
    started = time.perf_counter()
    child.start()
    reply = stats(child.url, version=1)
    elapsed = time.perf_counter() - started
    if reply["database_size"] != expect_size:
        child.kill()
        raise RuntimeError(
            f"server started with {reply['database_size']} signatures, "
            f"expected {expect_size}")
    return elapsed
