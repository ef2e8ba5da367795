"""PythonAppAdapter tests: live-Python programs as validation targets."""

import repro.sim.workloads as workloads_mod
from repro.core.pyapp import PythonAppAdapter
from repro.core.signature import Frame
from repro.dimmunix.frames import python_code_hash
from repro.dimmunix.lock import DimmunixLock
from repro.dimmunix.runtime import DimmunixRuntime


class TestRegistry:
    def test_module_functions_registered(self):
        adapter = PythonAppAdapter("app", [workloads_mod])
        # A method of a class in the module:
        frame = Frame(
            "repro.sim.workloads", "_t1_critical", 1,
            python_code_hash(
                workloads_mod.TwoLockProgram._t1_critical.__code__
            ),
        )
        assert adapter.frame_hash(frame) == frame.code_hash

    def test_unknown_frame_none(self):
        adapter = PythonAppAdapter("app", [workloads_mod])
        assert adapter.frame_hash(Frame("nowhere", "nothing", 1, "x")) is None

    def test_hash_matches_captured_frames(self):
        """Frames captured live must validate against the adapter — this is
        the property end-to-end distribution depends on."""
        runtime = DimmunixRuntime()
        adapter = PythonAppAdapter(
            "app", [workloads_mod], runtime=runtime
        )
        from repro.sim.workloads import TwoLockProgram

        program = TwoLockProgram(runtime, "pyapp")
        result = program.run_once(collide=True)
        assert result.deadlocked
        sig = runtime.history.snapshot()[0]
        known = 0
        for thread in sig.threads:
            for frame in thread.outer:
                expected = adapter.frame_hash(frame)
                if expected is not None:
                    # Every frame the adapter can see must agree; local
                    # closures (e.g. thread bootstrap lambdas) are not
                    # enumerable and get trimmed by validation instead.
                    assert expected == frame.code_hash
                    known += 1
        assert known >= 10  # the named call-chain frames are all known

    def test_generation_bumps_on_refresh(self):
        adapter = PythonAppAdapter("app", [workloads_mod])
        g0 = adapter.generation
        adapter.refresh()
        assert adapter.generation == g0 + 1

    def test_add_module_extends_registry(self):
        import repro.sim.apps as apps_mod

        adapter = PythonAppAdapter("app", [workloads_mod])
        frame = Frame(
            "repro.sim.apps", "_spin", 1,
            python_code_hash(apps_mod._spin.__code__),
        )
        assert adapter.frame_hash(frame) is None
        adapter.add_module(apps_mod)
        assert adapter.frame_hash(frame) == frame.code_hash


class TestNestedSites:
    def test_runtime_discovery_flows_through(self):
        runtime = DimmunixRuntime()
        adapter = PythonAppAdapter("app", [workloads_mod], runtime=runtime)
        assert adapter.nested_sync_sites() == set()
        import threading

        outer, inner = DimmunixLock(runtime), DimmunixLock(runtime)

        def op():
            with outer:
                with inner:
                    pass

        t = threading.Thread(target=op)
        t.start()
        t.join(2.0)
        assert len(adapter.nested_sync_sites()) == 1

    def test_persisted_sites_merged(self):
        adapter = PythonAppAdapter("app", [workloads_mod])
        adapter.register_nested_site(("m", "f", 3))
        assert ("m", "f", 3) in adapter.nested_sync_sites()

    def test_no_runtime_just_extra_sites(self):
        adapter = PythonAppAdapter(
            "app", [workloads_mod], extra_nested_sites={("m", "f", 1)}
        )
        assert adapter.nested_sync_sites() == {("m", "f", 1)}
