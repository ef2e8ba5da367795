"""Dimmunix runtime configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class DimmunixConfig:
    """Tunable parameters of the runtime."""

    #: Maximum call-stack frames captured per acquisition.
    capture_depth: int = 32
    #: False-positive detector (§III-C1): warn about a signature after this
    #: many instantiations with no true positive...
    fp_instantiation_threshold: int = 100
    #: ...provided at least one window of ``fp_burst_window`` seconds saw
    #: more than ``fp_burst_count`` instantiations.
    fp_burst_window: float = 1.0
    fp_burst_count: int = 10
    #: Persistent history location (None = in-memory only).
    history_path: Path | None = None
    #: Optional upper bound (seconds) on one avoidance suspension; ``None``
    #: trusts the avoidance-induced-cycle resolution (the default).  A bound
    #: is a belt-and-braces safety valve for pathological histories.
    max_avoidance_block: float | None = None
    #: Record the first acquisition stack seen at every site (used by the
    #: DoS-attack forger and diagnostics; off by default to save memory).
    record_acquisition_stacks: bool = False
    #: Module-name prefixes whose frames are excluded from captured stacks
    #: (the instrumentation itself must never appear in signatures).
    frame_blacklist: tuple[str, ...] = field(
        default=("repro.dimmunix", "repro.core", "threading")
    )
