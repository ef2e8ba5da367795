"""Deadlock detection integration tests (real threads)."""

import random
import sys
import threading

from repro.dimmunix.events import EventKind
from repro.dimmunix.lock import DimmunixLock
from repro.dimmunix.runtime import DimmunixRuntime
from repro.sim.workloads import DiningPhilosophers, TwoLockProgram
from repro.util.errors import DeadlockError


class TestTwoThreadDeadlock:
    def test_detects_and_extracts_signature(self, runtime):
        program = TwoLockProgram(runtime, "d1")
        result = program.run_once(collide=True)
        assert result.deadlocked
        assert len(result.deadlock_errors) == 1  # exactly one victim
        assert runtime.stats.deadlocks_detected == 1
        assert len(runtime.history) == 1

    def test_signature_structure(self, runtime):
        program = TwoLockProgram(runtime, "d2")
        program.run_once(collide=True)
        sig = runtime.history.snapshot()[0]
        assert len(sig.threads) == 2
        assert sig.origin == "local"
        for t in sig.threads:
            assert t.outer.depth >= 2
            assert t.inner.depth >= 2
            # Outer and inner lock statements live in the critical sections.
            assert "critical" in t.outer.top.method
            assert "critical" in t.inner.top.method

    def test_victim_error_carries_signature(self, runtime):
        program = TwoLockProgram(runtime, "d3")
        result = program.run_once(collide=True)
        err = result.deadlock_errors[0]
        assert err.signature is not None
        assert err.signature.sig_id == runtime.history.snapshot()[0].sig_id

    def test_same_deadlock_not_saved_twice(self, runtime):
        program = TwoLockProgram(runtime, "d4")
        # Clear history between runs so avoidance does not engage, but keep
        # runs colliding: the second deadlock has the same signature.
        first = program.run_once(collide=True)
        assert first.deadlocked
        saved = runtime.history.snapshot()
        runtime.history.clear()
        second = program.run_once(collide=True)
        assert second.deadlocked
        assert runtime.history.snapshot()[0].sig_id == saved[0].sig_id

    def test_events_emitted(self, runtime):
        program = TwoLockProgram(runtime, "d5")
        program.run_once(collide=True)
        assert runtime.events.count(EventKind.DEADLOCK_DETECTED) == 1
        assert runtime.events.count(EventKind.SIGNATURE_SAVED) == 1
        assert runtime.events.count(EventKind.VICTIM_RAISED) == 1


class TestMultiWayDeadlock:
    def test_three_philosophers_detected(self, runtime):
        table = DiningPhilosophers(runtime, seats=3)
        result = table.run_once(collide=True)
        assert result.deadlocked or result.completed
        if result.deadlock_errors:
            sig = runtime.history.snapshot()[0]
            assert 2 <= len(sig.threads) <= 3

    def test_one_detection_and_one_victim_per_incident(self, runtime):
        program = TwoLockProgram(runtime, "d6")
        result = program.run_once(collide=True)
        assert result.deadlocked
        # Only the edge that closes the cycle finds it: no second count,
        # no second victim.
        assert runtime.stats.deadlocks_detected == 1
        assert runtime.stats.victims_designated == 1


class TestSelfDeadlock:
    def test_self_deadlock_detected_and_raised(self, runtime):
        lock = DimmunixLock(runtime, "self")
        caught = []

        def worker():
            lock.acquire()
            try:
                lock.acquire()  # non-reentrant: blocks on itself
            except DeadlockError as exc:
                caught.append(exc)
            finally:
                lock.release()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(5.0)
        assert not thread.is_alive()
        assert caught
        assert caught[0].signature is None  # no multi-thread signature
        assert runtime.stats.self_deadlocks == 1
        assert runtime.events.count(EventKind.SELF_DEADLOCK) == 1


class TestNestedSiteDiscovery:
    def test_nested_sites_recorded(self, runtime):
        outer = DimmunixLock(runtime, "outer")
        inner = DimmunixLock(runtime, "inner")

        def op():
            with outer:
                with inner:
                    pass

        thread = threading.Thread(target=op)
        thread.start()
        thread.join(2.0)
        sites = runtime.nested_sites
        assert len(sites) == 1
        ((module, method, line),) = sites
        assert method == "op"  # the *outer* acquisition site is nested


class TestDetectionAtBlockTime:
    #: ``sig_id`` of TwoLockProgram's AB/BA deadlock as the periodic
    #: wait-for-graph sweep extracted it (CPython 3.11 code hashes).
    SWEEP_SIG_ID = "07c7fa8f452aeaf4"

    def test_inversion_detected_by_the_thread_that_closes_it(self, runtime):
        detected_on = []

        def on_event(event):
            if event.kind is EventKind.DEADLOCK_DETECTED:
                detected_on.append(threading.current_thread().name)

        runtime.events.subscribe(on_event)
        result = TwoLockProgram(runtime, "bt").run_once(collide=True)
        # Detection runs inside the second thread's blocking acquire, not
        # on some detector thread, and exactly once.
        assert detected_on in (["twolock-1"], ["twolock-2"])
        assert len(result.deadlock_errors) == 1
        assert runtime.stats.victims_designated == 1
        (sig,) = runtime.history.snapshot()
        assert result.deadlock_errors[0].signature == sig
        assert sig.sig_id == self.SWEEP_SIG_ID


class TestSeededStress:
    THREADS = 8
    LOCKS = 4
    OPS = 300

    def _run(self, locks, seed):
        victims = []
        start = threading.Barrier(self.THREADS)

        def hold(first, second):
            with first:
                with second:
                    pass

        def worker(index):
            rng = random.Random(seed * 100 + index)
            start.wait()
            for _ in range(self.OPS):
                chosen = rng.sample(locks, rng.choice((1, 2)))
                try:
                    if len(chosen) == 1:
                        with chosen[0]:
                            pass
                    else:
                        hold(*chosen)
                except DeadlockError:
                    victims.append(index)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(self.THREADS)]
        # A short GIL switch interval preempts threads inside their
        # critical sections, so the random nesting really interleaves.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)  # hang guard only
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        return victims

    def _assert_settled(self, runtime, victims):
        stats = runtime.stats
        assert stats.acquisitions == stats.releases
        assert runtime.held_locks() == {}
        assert runtime.thread_count() == 0  # nobody left waiting
        # Every detected deadlock raised in exactly one victim.
        assert len(victims) == stats.victims_designated
        assert stats.victims_designated == stats.deadlocks_detected

    def test_random_nesting_settles_before_and_after_immunity(self):
        runtime = DimmunixRuntime()
        locks = [DimmunixLock(runtime, f"s{i}") for i in range(self.LOCKS)]
        victims = self._run(locks, seed=1)
        self._assert_settled(runtime, victims)
        assert runtime.stats.deadlocks_detected >= 1
        assert len(runtime.history) >= 1

        victims += self._run(locks, seed=2)
        self._assert_settled(runtime, victims)
        assert runtime.stats.avoidance_blocks >= 1
