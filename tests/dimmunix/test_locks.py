"""Instrumented lock API tests."""

import threading
import time

import pytest

from repro.dimmunix.lock import DimmunixLock, DimmunixRLock


class TestDimmunixLock:
    def test_acquire_release(self, runtime):
        lock = DimmunixLock(runtime, "L")
        assert lock.acquire()
        assert lock.locked()
        lock.release()
        assert not lock.locked()

    def test_context_manager(self, runtime):
        lock = DimmunixLock(runtime, "L")
        with lock:
            assert lock.locked()
        assert not lock.locked()

    def test_nonblocking_acquire(self, runtime):
        lock = DimmunixLock(runtime, "L")
        holder = threading.Thread(target=lambda: lock.acquire())
        holder.start()
        holder.join()
        assert lock.acquire(blocking=False) is False
        # Release from the holding thread side is not possible here; use a
        # fresh lock for the success case.
        free = DimmunixLock(runtime, "F")
        assert free.acquire(blocking=False) is True
        free.release()

    def test_timeout_expires(self, runtime):
        lock = DimmunixLock(runtime, "L")
        grabbed = threading.Event()
        release = threading.Event()

        def holder():
            with lock:
                grabbed.set()
                release.wait(3.0)

        thread = threading.Thread(target=holder)
        thread.start()
        assert grabbed.wait(2.0)
        started = time.monotonic()
        assert lock.acquire(timeout=0.15) is False
        assert 0.1 <= time.monotonic() - started < 1.5
        release.set()
        thread.join(2.0)

    def test_release_unheld_raises(self, runtime):
        lock = DimmunixLock(runtime, "L")
        with pytest.raises(RuntimeError):
            lock.release()

    def test_runtime_holder_bookkeeping(self, runtime):
        lock = DimmunixLock(runtime, "L")
        with lock:
            held = runtime.held_locks()
            assert held.get(lock.lock_id) == threading.get_ident()
        assert lock.lock_id not in runtime.held_locks()

    def test_distinct_lock_ids(self, runtime):
        a, b = DimmunixLock(runtime), DimmunixLock(runtime)
        assert a.lock_id != b.lock_id

    def test_thread_state_gc(self, runtime):
        lock = DimmunixLock(runtime, "L")

        def use():
            with lock:
                pass

        thread = threading.Thread(target=use)
        thread.start()
        thread.join()
        assert runtime.thread_count() == 0


class TestDimmunixRLock:
    def test_reentrant(self, runtime):
        rlock = DimmunixRLock(runtime, "R")
        with rlock:
            with rlock:
                with rlock:
                    pass
        assert runtime.stats.acquisitions == 1  # outermost only

    def test_release_by_non_owner_raises(self, runtime):
        rlock = DimmunixRLock(runtime, "R")
        rlock.acquire()
        errors = []

        def bad_release():
            try:
                rlock.release()
            except RuntimeError as exc:
                errors.append(exc)

        thread = threading.Thread(target=bad_release)
        thread.start()
        thread.join()
        assert errors
        rlock.release()

    def test_condition_compatibility(self, runtime):
        rlock = DimmunixRLock(runtime, "R")
        cond = threading.Condition(rlock)
        fired = []

        waiting = threading.Event()

        def waiter():
            with cond:
                waiting.set()
                fired.append(cond.wait(timeout=2.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        assert waiting.wait(2.0)
        # The waiter set the gate while holding the lock, so taking the
        # lock here means it is parked in cond.wait.
        with cond:
            cond.notify()
        thread.join(2.0)
        assert fired == [True]

    def test_blocking_between_threads(self, runtime):
        rlock = DimmunixRLock(runtime, "R")
        order = []
        held = threading.Event()

        def first():
            with rlock:
                held.set()
                # Hold on until the second thread has registered its wait
                # with the runtime (a spin, bounded as a hang guard).
                deadline = time.monotonic() + 2.0
                while (runtime.thread_count() < 2
                       and time.monotonic() < deadline):
                    pass
                order.append("first-out")

        def second():
            held.wait(2.0)
            with rlock:
                order.append("second-in")

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(3.0)
        assert order == ["first-out", "second-in"]
