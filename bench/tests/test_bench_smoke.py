"""Schema smoke test for ``bench/run.py``: every workload with a 1 s
window (512-signature ``cold_sync``), and one traced run.

Asserts only shape — that each metric ``BENCHMARK.json`` declares comes
out, with its unit, that the correctness checks pass and that spans
point at existing parents.  No timing is asserted: this must pass on a
loaded box.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, out: Path) -> tuple[dict, dict]:
    """(last stdout line, full record) of one smoke run."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(out.read_text().splitlines()[-1])
    return last, record


def check_result(last: dict, record: dict, section: str) -> None:
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= 1
    assert record["checks"] and all(record["checks"].values())
    assert record["claim"] is None
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(last["metrics"]) == set(declared)
    for name, entry in last["metrics"].items():
        assert entry["unit"] == declared[name]
        assert isinstance(entry["value"], (int, float))
    for key in ("commit", "python", "nproc", "affinity", "crypto_backend",
                "transport", "tmp_fs", "seed"):
        assert key in record["fingerprint"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    last, record = run_bench(workload, 0, tmp_path / "out.json")
    check_result(last, record, "end_to_end")
    assert record["workload"] == workload
    assert record["per_layer"] == {}
    for entry in last["metrics"].values():
        assert entry["value"] > 0


def test_traced_run_reports_every_layer_metric_and_linked_spans(tmp_path):
    last, record = run_bench("steady_durable", 1, tmp_path / "out.json")
    check_result(last, record, "per_layer")
    assert set(record["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}

    rows = [json.loads(line) for line in
            (BENCH / "out" / "trace-steady_durable.jsonl").read_text()
            .splitlines()]
    spans = {row["id"]: row for row in rows if "id" in row}
    assert any("stats_diff" in row for row in rows)
    assert {"driver.add", "driver.get", "server.process_add",
            "signature.parse", "validation.check_add",
            "database.append"} <= {span["name"] for span in spans.values()}
    for span in spans.values():
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            assert spans[span["parent"]]["name"].startswith("server.process_")
