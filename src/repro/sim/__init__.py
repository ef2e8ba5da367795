"""Workload and simulation substrates for the evaluation.

The paper evaluates on large Java applications (JBoss/RUBiS, MySQL JDBC,
Eclipse, Limewire, Vuze) and on a hypothetical field deployment with many
users.  Neither is runnable here, so this subpackage provides the documented
substitutes (see "Client half: the Dimmunix runtime" in
``docs/architecture.md``):

* :mod:`repro.sim.workloads` — small deadlock-prone programs with realistic
  call-stack depth, used by tests and examples to exercise the full
  detect -> share -> avoid cycle;
* :mod:`repro.sim.apps` — parameterized lock-intensive application workloads
  whose locking structure drives the Table II / Fig. 4 numbers;
* :mod:`repro.sim.attack` — the §IV-B attacker: forging critical-path
  signatures at a chosen depth;
* :mod:`repro.sim.protection` — the §IV-C time-to-full-protection model.
"""

from repro.sim.apps import (
    APP_WORKLOADS,
    AppWorkload,
    WorkloadSpec,
    dimmunix_lock_factory,
    measure_overhead,
)
from repro.sim.attack import forge_critical_path_signatures, forge_off_path_signatures
from repro.sim.protection import (
    ProtectionOutcome,
    ProtectionParams,
    analytic_estimate,
    mean_protection_times,
    simulate_protection,
)
from repro.sim.workloads import DiningPhilosophers, RunResult, TwoLockProgram

__all__ = [
    "APP_WORKLOADS",
    "AppWorkload",
    "WorkloadSpec",
    "dimmunix_lock_factory",
    "measure_overhead",
    "forge_critical_path_signatures",
    "forge_off_path_signatures",
    "ProtectionOutcome",
    "ProtectionParams",
    "analytic_estimate",
    "mean_protection_times",
    "simulate_protection",
    "DiningPhilosophers",
    "RunResult",
    "TwoLockProgram",
]
