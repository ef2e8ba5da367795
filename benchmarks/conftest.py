"""Benchmark harness shared machinery.

Every benchmark regenerates one table or figure from the paper's §IV.  Each
writes a paper-style text artifact into ``benchmarks/results/`` (so the
series survive the run) *and* registers with pytest-benchmark for timing
stats.  Absolute numbers are not expected to match the paper (pure-Python
substrate, scaled thread counts); each bench's module docstring states the
paper's shape and the scaling substitution, and its assertions check the
shape.  Performance claims about the server are judged by ``bench/``, not
here.

Smoke runs (``COMMUNIX_BENCH_SMOKE=1``) write ``results/foo.smoke.txt``
artifacts, so a CI-sized run never clobbers the committed full-run series.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).resolve().parent.parent

_SRC = REPO_ROOT / "src"
if str(_SRC) not in sys.path:  # allow running without installation
    sys.path.insert(0, str(_SRC))

SMOKE = os.environ.get("COMMUNIX_BENCH_SMOKE") == "1"


def artifact_name(name: str) -> str:
    """``foo.txt`` → ``foo.smoke.txt`` under COMMUNIX_BENCH_SMOKE."""
    if not SMOKE:
        return name
    stem, dot, ext = name.rpartition(".")
    return f"{stem}.smoke.{ext}" if dot else f"{name}.smoke"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_artifact(results_dir: Path, name: str, lines: list[str]) -> Path:
    """Write a paper-style table/series artifact and echo it to stdout."""
    path = results_dir / artifact_name(name)
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    sys.stdout.write("\n" + text)
    return path
