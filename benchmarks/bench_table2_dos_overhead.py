"""EXP-T2 — Table II: worst-case overhead while under a DoS attack.

Paper setup: each application runs its standard benchmark with 20 malicious
deadlock signatures in the history, depth-5 outer call stacks covering the
nested synchronized blocks on the critical path ("more than 99% of the
nested synchronized blocks/methods are executed with these call stacks").
Reported: overhead vs vanilla.  Paper: RUBiS 40%, JDBCBench 38%, Eclipse
33%, Limewire upload 10%, Vuze 8% — "acceptable for general-purpose
applications", i.e. Communix successfully contains the attack.

The reproduced claims: every workload stays bounded (same few-tens-of-
percent band), the lock-density ordering holds, and the numbers sit far
below the depth-1 blow-up measured in the ablation bench.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_artifact
from benchmarks.dos_common import attacked_runtime, benchmark_gil, spread
from repro.sim.apps import APP_WORKLOADS, measure_overhead

PAPER = {
    "jboss_rubis": ("JBoss", "RUBiS", 40),
    "mysql_jdbc": ("MySQL JDBC", "JDBCBench", 38),
    "eclipse": ("Eclipse", "Startup + Shutdown", 33),
    "limewire_upload": ("Limewire", "Upload test", 10),
    "vuze": ("Vuze", "Startup + Shutdown", 8),
}

_rows: dict[str, dict] = {}


def run_attack(workload_name: str) -> dict:
    spec = APP_WORKLOADS[workload_name]
    with benchmark_gil():
        runtime = attacked_runtime(spec, mode="critical", depth=5)
        result = measure_overhead(spec, runtime, repeats=5)
    result["avoidance_blocks"] = runtime.stats.avoidance_blocks
    return result


@pytest.mark.parametrize("workload_name", list(APP_WORKLOADS))
def test_table2_dos_overhead(benchmark, workload_name, results_dir):
    result = benchmark.pedantic(
        run_attack, args=(workload_name,), rounds=1, iterations=1
    )
    _rows[workload_name] = result
    benchmark.extra_info.update(
        overhead_percent=result["overhead_percent"],
        avoidance_blocks=result["avoidance_blocks"],
    )
    # Containment: the attack must not blow past the same order of magnitude
    # the paper reports (depth-1, measured in the ablation, is the blow-up).
    assert result["overhead_percent"] < 150.0
    if workload_name == list(APP_WORKLOADS)[-1]:
        lines = [
            "Table II — worst-case overhead under a DoS attack "
            "(20 critical-path depth-5 signatures)",
            f"{'Application':<14s} {'Benchmark/Test':<20s} "
            f"{'Overhead':>9s} {'spread':>12s} {'(paper)':>8s} {'blocks':>7s}",
        ]
        for name in APP_WORKLOADS:
            app, bench_name, paper_pct = PAPER[name]
            r = _rows[name]
            lines.append(
                f"{app:<14s} {bench_name:<20s} "
                f"{r['overhead_percent']:8.0f}% {spread(r):>12s} "
                f"{paper_pct:7d}% "
                f"{r['avoidance_blocks']:7d}"
            )
        write_artifact(results_dir, "table2_dos_overhead.txt", lines)
