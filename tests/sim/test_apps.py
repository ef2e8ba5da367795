"""Application-workload tests (the Table II substrate)."""

import threading

from repro.dimmunix.config import DimmunixConfig
from repro.dimmunix.runtime import DimmunixRuntime
from repro.sim.apps import (
    APP_WORKLOADS,
    AppWorkload,
    dimmunix_lock_factory,
    measure_overhead,
)


def tiny(spec):
    return spec.scaled(0.05)


class TestVanillaRuns:
    def test_all_presets_run_clean(self):
        for spec in APP_WORKLOADS.values():
            elapsed = AppWorkload(tiny(spec)).run()
            assert elapsed > 0

    def test_scaling_preserves_shape(self):
        spec = APP_WORKLOADS["jboss_rubis"]
        scaled = spec.scaled(0.1)
        assert scaled.threads == spec.threads
        assert scaled.resources == spec.resources
        assert scaled.ops_per_thread < spec.ops_per_thread


class TestImmunizedRuns:
    def test_runs_with_dimmunix_locks(self):
        runtime = DimmunixRuntime()
        spec = tiny(APP_WORKLOADS["vuze"])
        workload = AppWorkload(spec, dimmunix_lock_factory(runtime))
        workload.run()
        expected = spec.threads * spec.ops_per_thread * 2  # outer+inner
        assert runtime.stats.acquisitions == expected
        assert runtime.stats.deadlocks_detected == 0

    def test_nested_sites_discovered(self):
        runtime = DimmunixRuntime()
        spec = tiny(APP_WORKLOADS["eclipse"])
        AppWorkload(spec, dimmunix_lock_factory(runtime)).run()
        # Every op acquires inner while holding outer: the (single)
        # outer acquisition site is a nested site.
        assert len(runtime.nested_sites) >= 1


class TestStackSampling:
    def test_samples_cover_paths(self):
        config = DimmunixConfig(record_acquisition_stacks=True)
        runtime = DimmunixRuntime(config=config)
        spec = tiny(APP_WORKLOADS["jboss_rubis"])
        workload = AppWorkload(spec, dimmunix_lock_factory(runtime))
        samples = workload.sample_stacks(runtime, ops=300)
        # Distinct call paths yield distinct depth-5 suffixes; with 6
        # paths and outer+inner sites we expect a healthy sample pool.
        assert len(samples) >= spec.paths


class TestOverheadEstimator:
    def test_paired_median_inside_its_spread(self):
        runtime = DimmunixRuntime()
        spec = tiny(APP_WORKLOADS["vuze"])
        result = measure_overhead(spec, runtime, repeats=3)
        assert (result["overhead_min"] <= result["overhead_percent"]
                <= result["overhead_max"])
        # Every immunized run is paired with its own vanilla run.
        per_run = spec.threads * spec.ops_per_thread * 2  # outer+inner
        assert runtime.stats.acquisitions == 3 * per_run
