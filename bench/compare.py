#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric, workload by workload.

    python3 bench/compare.py A.json B.json

Each file holds the records ``run.py --out FILE`` appended, one JSON
object per line, any number of runs per workload.  For every end-to-end
metric and workload the table shows both medians, each side's spread
(distance between its quartiles as a share of its median), how much
worse B's median is than A's, and the bound from ``BENCHMARK.json``:

* ``ok``          B is no worse than A by more than the bound;
* ``REGRESSION``  it is;
* ``unresolved``  a side's spread is wider than the bound, so the runs
  cannot tell (report it as such, never as unchanged).

Exits 1 when any row is a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` from one run-set file."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        for metric, entry in record["end_to_end"].items():
            values[record["workload"], metric].append(entry["value"])
    return values


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(a: dict, b: dict) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for spec in SPEC["end_to_end"]:
            key = (workload, spec["name"])
            if key not in a or key not in b:
                continue
            med_a = statistics.median(a[key])
            med_b = statistics.median(b[key])
            change = (med_b - med_a) / med_a
            worse = -change if spec["better"] == "higher" else change
            widest = max(spread(a[key]), spread(b[key]))
            if widest > spec["bound"]:
                verdict = "unresolved"
            elif worse > spec["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": spec["name"],
                "unit": spec["unit"], "a": med_a, "b": med_b,
                "n_a": len(a[key]), "n_b": len(b[key]),
                "spread_a": spread(a[key]), "spread_b": spread(b[key]),
                "worse": worse, "bound": spec["bound"], "verdict": verdict,
            })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    print(f"{'workload':15s} {'metric':11s} {'A median':>14s} {'B median':>14s} "
          f"{'unit':5s} {'n':>5s} {'spread A':>8s} {'spread B':>8s} "
          f"{'B worse':>8s} {'bound':>6s}  verdict")
    for row in rows:
        print(f"{row['workload']:15s} {row['metric']:11s} {row['a']:14.4f} "
              f"{row['b']:14.4f} {row['unit']:5s} "
              f"{row['n_a']:>2d}/{row['n_b']:<2d} {row['spread_a']:8.1%} "
              f"{row['spread_b']:8.1%} {row['worse']:+8.1%} "
              f"{row['bound']:6.0%}  {row['verdict']}")
    return 1 if any(row["verdict"] == "REGRESSION" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
