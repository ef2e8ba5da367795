"""Shared machinery for the DoS benchmarks (Table II and the depth ablation).

The attack pipeline mirrors §IV-B exactly:

1. sample real acquisition stacks from the victim workload (the attacker
   knows the application's code);
2. forge two-thread signatures whose outer stacks are depth-``d`` suffixes
   of those stacks — "signatures with outer call stacks of depth 5 which
   cover all the nested synchronized blocks/methods that are on the critical
   path";
3. install them in a Dimmunix runtime's history (worst case: the signatures
   passed validation) and measure the workload vanilla vs immunized.

CPython specifics: avoidance wake-ups contend with spinning CPU threads for
the GIL, whose default switch interval (5 ms) would dominate every
suspension.  The benchmarks lower it while measuring (and restore it after),
which is a measurement-environment adjustment, not a semantic one.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

from repro.dimmunix.config import DimmunixConfig
from repro.dimmunix.runtime import DimmunixRuntime
from repro.sim.apps import AppWorkload, WorkloadSpec, dimmunix_lock_factory
from repro.sim.attack import forge_critical_path_signatures, forge_off_path_signatures

SIGNATURE_COUNT = 20  # "the tests run with 20 deadlock signatures in the history"


@contextmanager
def benchmark_gil():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def spread(result: dict) -> str:
    """The min..max paired overhead of a ``measure_overhead`` result."""
    return f"{result['overhead_min']:.0f}..{result['overhead_max']:.0f}%"


def sample_workload_stacks(spec: WorkloadSpec, ops: int = 400) -> list:
    """Step 1: what the attacker observes about the victim's call stacks."""
    recorder = DimmunixRuntime(
        config=DimmunixConfig(record_acquisition_stacks=True)
    )
    workload = AppWorkload(spec, dimmunix_lock_factory(recorder))
    return workload.sample_stacks(recorder, ops=ops)


def attacked_runtime(spec: WorkloadSpec, mode: str, depth: int = 5
                     ) -> DimmunixRuntime:
    """A runtime whose history holds the requested attack.

    ``mode``: "critical" (critical-path suffixes), "offpath" (locations the
    application never executes), or "empty" (instrumentation baseline).
    """
    runtime = DimmunixRuntime()
    if mode == "critical":
        samples = sample_workload_stacks(spec)
        runtime.history.merge_from(
            forge_critical_path_signatures(samples, count=SIGNATURE_COUNT,
                                           depth=depth)
        )
    elif mode == "offpath":
        runtime.history.merge_from(
            forge_off_path_signatures(count=SIGNATURE_COUNT, depth=depth)
        )
    elif mode != "empty":
        raise ValueError(f"unknown attack mode {mode!r}")
    return runtime
