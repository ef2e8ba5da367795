"""``repro.loadgen`` — event-driven client swarm for load generation.

A selectors-based engine multiplexes thousands of simulated Communix
clients over a handful of OS threads (mirroring the server transport's
event-loop design), drives each one with a pluggable scenario state
machine, and records per-op latency histograms and throughput series.

Programmatic use::

    from repro.loadgen import SwarmEngine, build_mix

    engine = SwarmEngine("tcp://127.0.0.1:7199", loops=2)
    engine.add_clients(build_mix("cold=1,steady=2", clients=500, seed=7))
    snapshot = engine.run(timeout=120.0)
    print(snapshot.histograms["get_page"].percentile(99))

Command line: ``python -m repro.loadgen --help``.
"""

from repro.loadgen.engine import SwarmEngine
from repro.loadgen.federation import FederationReport, federated_run
from repro.loadgen.metrics import (
    Metrics,
    MetricsSnapshot,
    merge_snapshots,
)
from repro.loadgen.scenarios import (
    AdjacentSpam,
    Churn,
    ColdSync,
    ForgedTokens,
    Park,
    QuotaFlood,
    RampingFlood,
    Reconnect,
    SCENARIO_NAMES,
    Scenario,
    Send,
    SteadyState,
    Stop,
    build_mix,
    make_scenario,
    parse_mix,
)

__all__ = [
    "AdjacentSpam",
    "Churn",
    "ColdSync",
    "FederationReport",
    "ForgedTokens",
    "Metrics",
    "MetricsSnapshot",
    "Park",
    "QuotaFlood",
    "RampingFlood",
    "Reconnect",
    "SCENARIO_NAMES",
    "Scenario",
    "Send",
    "SteadyState",
    "Stop",
    "SwarmEngine",
    "build_mix",
    "federated_run",
    "make_scenario",
    "merge_snapshots",
    "parse_mix",
]
