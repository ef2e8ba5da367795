"""EXP-D — §IV-B in-text claims: the signature-depth ablation.

Three claims frame the depth >= 5 rule:

* "Signatures with outer call stacks of depth 5 incur an acceptable
  performance overhead" (Table II's band);
* "for depth 1, the overhead is considerable (i.e., > 100%), for some of
  the applications we studied" — which is why the agent rejects
  depth < 5 (the attack is *contained* only because validation blocks it;
  this bench measures what would happen if it didn't);
* "If none of the signatures is on the critical path, the performance
  overhead incurred by Dimmunix is negligible (i.e., < 2%)" — off-path
  signatures cost one index miss per acquisition.  (In the paper this is
  relative to vanilla on JVM-weight instrumentation; our pure-Python
  stack capture has a higher floor, so the off-path *delta over the
  empty-history instrumentation baseline* is the faithful comparison and
  is reported alongside.)
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_artifact
from benchmarks.dos_common import attacked_runtime, benchmark_gil, spread
from repro.sim.apps import APP_WORKLOADS, measure_overhead

WORKLOADS = ("jboss_rubis", "eclipse", "vuze")
MODES = (
    ("empty", 5),  # instrumentation baseline (no signatures at all)
    ("offpath", 5),  # 20 signatures, none on the critical path
    ("critical", 5),  # Table II's contained attack
    ("critical", 1),  # the blow-up the depth floor prevents
)

_rows: dict[tuple[str, str, int], dict] = {}


def run_mode(workload_name: str, mode: str, depth: int) -> dict:
    spec = APP_WORKLOADS[workload_name]
    with benchmark_gil():
        runtime = attacked_runtime(spec, mode=mode, depth=depth)
        result = measure_overhead(spec, runtime, repeats=5)
    result["avoidance_blocks"] = runtime.stats.avoidance_blocks
    return result


@pytest.mark.parametrize("workload_name", WORKLOADS)
@pytest.mark.parametrize("mode,depth", MODES,
                         ids=[f"{m}-d{d}" for m, d in MODES])
def test_ablation_depth(benchmark, workload_name, mode, depth, results_dir):
    result = benchmark.pedantic(
        run_mode, args=(workload_name, mode, depth), rounds=1, iterations=1
    )
    _rows[(workload_name, mode, depth)] = result
    benchmark.extra_info["overhead_percent"] = result["overhead_percent"]
    if workload_name == WORKLOADS[-1] and (mode, depth) == MODES[-1]:
        lines = [
            "Depth ablation — overhead vs vanilla (20 signatures unless empty)",
            f"{'workload':<16s} {'mode':<10s} {'depth':>5s} "
            f"{'overhead%':>9s} {'spread':>12s} {'blocks':>7s}",
        ]
        for (wl, m, d), r in sorted(_rows.items()):
            lines.append(
                f"{wl:<16s} {m:<10s} {d:5d} "
                f"{r['overhead_percent']:8.0f}% {spread(r):>12s} "
                f"{r['avoidance_blocks']:7d}"
            )
        # The in-text claims, stated explicitly:
        for wl in WORKLOADS:
            empty = _rows[(wl, "empty", 5)]["overhead_percent"]
            off = _rows[(wl, "offpath", 5)]["overhead_percent"]
            d5 = _rows[(wl, "critical", 5)]["overhead_percent"]
            d1 = _rows[(wl, "critical", 1)]["overhead_percent"]
            lines.append(
                f"{wl}: off-path delta over empty history = {off - empty:+.0f}pp "
                f"(paper: <2%); depth-5 = {d5:.0f}%, depth-1 = {d1:.0f}% "
                "(paper: >100% for some applications)"
            )
        write_artifact(results_dir, "ablation_depth.txt", lines)


def test_depth1_exceeds_100_percent_somewhere(results_dir):
    """The headline in-text claim, as an executable assertion."""
    if not _rows:  # pragma: no cover - when run in isolation
        pytest.skip("ablation rows not collected in this session")
    depth1 = [
        r["overhead_percent"] for (wl, m, d), r in _rows.items()
        if m == "critical" and d == 1
    ]
    depth5 = [
        r["overhead_percent"] for (wl, m, d), r in _rows.items()
        if m == "critical" and d == 5
    ]
    assert max(depth1) > 100.0
    assert max(depth1) > max(depth5)
