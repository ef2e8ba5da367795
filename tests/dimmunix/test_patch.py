"""Monkey-patching tests: immunizing unmodified code."""

import threading

from repro.dimmunix.lock import DimmunixLock, DimmunixRLock, patch_threading
from repro.dimmunix.runtime import DimmunixRuntime


class TestPatchThreading:
    def test_locks_created_in_scope_are_instrumented(self):
        runtime = DimmunixRuntime()
        with patch_threading(runtime):
            lock = threading.Lock()
            rlock = threading.RLock()
            assert isinstance(lock, DimmunixLock)
            assert isinstance(rlock, DimmunixRLock)
            with lock:
                pass
        assert runtime.stats.acquisitions == 1

    def test_factories_restored_after_scope(self):
        original_lock = threading.Lock
        original_rlock = threading.RLock
        runtime = DimmunixRuntime()
        with patch_threading(runtime):
            pass
        assert threading.Lock is original_lock
        assert threading.RLock is original_rlock

    def test_restored_even_on_exception(self):
        original_lock = threading.Lock
        runtime = DimmunixRuntime()
        try:
            with patch_threading(runtime):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert threading.Lock is original_lock

    def test_unpatched_locks_untouched(self):
        before = threading.Lock()
        runtime = DimmunixRuntime()
        with patch_threading(runtime):
            pass
        assert not isinstance(before, DimmunixLock)

    def test_patched_program_gets_immunity(self):
        """An unmodified AB/BA program, immunized purely via patching."""
        runtime = DimmunixRuntime()
        with patch_threading(runtime):
            lock_a = threading.Lock()
            lock_b = threading.Lock()

        from repro.util.errors import DeadlockError

        results = {"errors": 0}
        e1, e2 = threading.Event(), threading.Event()

        def t1():
            try:
                with lock_a:
                    e1.set()
                    e2.wait(0.5)
                    with lock_b:
                        pass
            except DeadlockError:
                results["errors"] += 1

        def t2():
            try:
                with lock_b:
                    e2.set()
                    e1.wait(0.5)
                    with lock_a:
                        pass
            except DeadlockError:
                results["errors"] += 1

        threads = [threading.Thread(target=t1), threading.Thread(target=t2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(5.0)
        assert results["errors"] == 1
        assert len(runtime.history) == 1

    def test_default_global_runtime_used(self):
        from repro.dimmunix.lock import get_runtime, set_runtime

        replacement = DimmunixRuntime()
        previous = set_runtime(replacement)
        try:
            with patch_threading() as active:
                assert active is replacement
                lock = threading.Lock()
                with lock:
                    pass
            assert replacement.stats.acquisitions == 1
        finally:
            set_runtime(previous)
