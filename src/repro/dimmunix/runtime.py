"""The Dimmunix runtime: lock ownership, avoidance gating, deadlock detection.

One :class:`DimmunixRuntime` instance lives per immunized process.  It owns
every instrumented lock's state — who holds it, who waits for it, and where
each was acquired — and runs each lock event as one synchronous transition
under a single monitor:

``acquire``
    the avoidance check, which suspends the caller while granting its
    request would complete a signature instantiation; then the take, or a
    wait on the lock's condition.  An uncontended acquire is one critical
    section.  A thread that has to wait registers its wait-for edge and
    walks the wait-for graph from it; a new cycle must pass through the new
    edge, so this finds a deadlock at the moment it forms.  A real cycle
    yields a signature and a victim, an avoidance-induced cycle a yield
    permit;
``release``
    drops the ownership and wakes one waiter of the lock; when the
    releasing thread is part of an avoidance waiter's dangerous pattern,
    it also wakes the avoidance waiters to re-check their patterns.

Nothing runs on a timer: a blocked thread is woken by a release, a victim
designation, a yield permit or a discarded signature, and a timed wait
remains only for a caller's ``timeout`` and ``max_avoidance_block``.  The
paper's Dimmunix uses the same global-intercept structure; the per-
acquisition cost of this monitor is part of the instrumentation overhead
measured in Table II.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.core.history import DeadlockHistory
from repro.core.signature import (
    CallStack,
    DeadlockSignature,
    ORIGIN_LOCAL,
    ThreadSignature,
)
from repro.dimmunix.avoidance import AvoidanceModule, DangerMatch, ThreadView
from repro.dimmunix.config import DimmunixConfig
from repro.dimmunix.events import EventKind, EventLog
from repro.dimmunix.fp import FalsePositiveDetector
from repro.util.clock import Clock, SystemClock
from repro.util.errors import DeadlockError

# Real primitives captured at import time: the runtime must keep working
# when ``patch_threading`` has swapped the public factories.
_REAL_RLOCK = threading.RLock
_REAL_CONDITION = threading.Condition


@dataclass
class _HeldLock:
    lock_id: int
    stack: CallStack


class _ThreadState:
    __slots__ = (
        "tid",
        "held",
        "waiting_lock",
        "waiting_stack",
        "avoidance_match",
        "yield_permit",
        "victim_signature",
    )

    def __init__(self, tid: int):
        self.tid = tid
        self.held: dict[int, _HeldLock] = {}
        #: The DimmunixLock this thread is blocked on.
        self.waiting_lock = None
        self.waiting_stack: CallStack | None = None
        self.avoidance_match: DangerMatch | None = None
        self.yield_permit = False
        self.victim_signature: DeadlockSignature | None | bool = False

    @property
    def idle(self) -> bool:
        return (
            not self.held
            and self.waiting_lock is None
            and self.avoidance_match is None
            and self.victim_signature is False
        )


@dataclass
class RuntimeStats:
    """Counters exposed for benchmarks and tests (all monitor-protected)."""

    acquisitions: int = 0
    releases: int = 0
    avoidance_blocks: int = 0
    avoidance_wait_seconds: float = 0.0
    deadlocks_detected: int = 0
    self_deadlocks: int = 0
    signatures_saved: int = 0
    yields_granted: int = 0
    victims_designated: int = 0

    def snapshot(self) -> dict[str, float]:
        return dict(self.__dict__)


class DimmunixRuntime:
    def __init__(
        self,
        history: DeadlockHistory | None = None,
        config: DimmunixConfig | None = None,
        clock: Clock | None = None,
        events: EventLog | None = None,
    ):
        self.config = config or DimmunixConfig()
        self.history = history if history is not None else DeadlockHistory(
            path=self.config.history_path
        )
        self.clock = clock or SystemClock()
        self.events = events or EventLog()
        self.avoidance = AvoidanceModule(self.history)
        self.fp = FalsePositiveDetector(self.config, self.clock, self.events)
        self.stats = RuntimeStats()
        #: The monitor: guards all state below; every lock's condition and
        #: the avoidance condition are built over it.
        self._monitor = _REAL_RLOCK()
        self._avoidance_wakeup = _REAL_CONDITION(self._monitor)
        self._threads: dict[int, _ThreadState] = {}
        self._holders: dict[int, int] = {}  # lock_id -> holder tid
        self._avoiders: dict[int, _ThreadState] = {}  # suspended by avoidance
        #: Dynamically discovered nested sites: acquisition sites of locks
        #: that were held while another lock was acquired (outer blocks of a
        #: nested pair).  This is the live-Python substitute for the static
        #: nesting analysis (the agent's nesting check consumes it through
        #: PythonAppAdapter).
        self.nested_sites: set[tuple[str, str, int]] = set()
        #: Sample acquisition stacks keyed by their top-5 frame locations
        #: (so distinct call paths into the same site are all represented),
        #: kept only when ``config.record_acquisition_stacks`` is set.  The
        #: DoS-attack forger (§IV-B) builds critical-path signatures from
        #: these samples.
        self.acquisition_stacks: dict[tuple, CallStack] = {}

    def condition(self) -> threading.Condition:
        """A condition over the monitor, for one lock's blocked acquirers."""
        return _REAL_CONDITION(self._monitor)

    # --------------------------------------------------------- thread state
    def _state(self, tid: int) -> _ThreadState:
        state = self._threads.get(tid)
        if state is None:
            state = _ThreadState(tid)
            self._threads[tid] = state
        return state

    def _gc_thread(self, tid: int) -> None:
        state = self._threads.get(tid)
        if state is not None and state.idle:
            del self._threads[tid]

    def _views_excluding(self, tid: int) -> list[ThreadView]:
        views = []
        for other_tid, state in self._threads.items():
            if other_tid == tid:
                continue
            view = ThreadView(tid=other_tid)
            for held in state.held.values():
                view.held.append((held.lock_id, held.stack))
            if state.waiting_lock is not None:
                view.waiting = (state.waiting_lock.lock_id, state.waiting_stack)
            if view.held or view.waiting:
                views.append(view)
        return views

    # -------------------------------------------------------- lock protocol
    def acquire(self, lock, stack: CallStack, blocking: bool = True,
                deadline: float | None = None) -> bool:
        """Take ``lock`` (a :class:`DimmunixLock`) for the calling thread.

        Returns False when the lock is busy and ``blocking`` is false, or
        when ``deadline`` (a ``time.monotonic()`` instant) passes first.
        Raises :class:`DeadlockError` in the victim of a deadlock.  A
        non-blocking acquire never waits, so it skips the avoidance gate.
        """
        tid = threading.get_ident()
        lock_id = lock.lock_id
        with self._monitor:
            state = self._state(tid)
            if blocking and not self._pass_avoidance(state, lock_id, stack,
                                                     deadline):
                self._gc_thread(tid)
                return False
            if lock_id not in self._holders:
                self._take(state, lock_id, stack)
                return True
            if not blocking:
                self._gc_thread(tid)
                return False
            state.waiting_lock = lock
            state.waiting_stack = stack
            found = self._detect(state)
        if found is not None:
            self._publish(*found)
        with self._monitor:
            return self._wait_for(state, lock, stack, deadline)

    def _wait_for(self, state: _ThreadState, lock, stack: CallStack,
                  deadline: float | None) -> bool:
        lock_id = lock.lock_id
        while True:
            if lock_id not in self._holders:
                self._take(state, lock_id, stack)
                return True
            if state.victim_signature is not False:
                signature = state.victim_signature
                self._stop_waiting(state)
                raise DeadlockError(
                    f"deadlock detected while acquiring {lock.name}; "
                    "this thread was designated the victim",
                    signature=signature,
                )
            if deadline is None:
                lock.waiters.wait()
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._stop_waiting(state)
                return False
            lock.waiters.wait(remaining)

    def _take(self, state: _ThreadState, lock_id: int,
              stack: CallStack) -> None:
        if state.held and stack:
            # Acquiring while already holding: every held lock's
            # acquisition site is an *outer* (nested) synchronized block
            # in the paper's sense — record those sites.
            for held in state.held.values():
                if held.stack:
                    self.nested_sites.add(held.stack.top.location)
        if self.config.record_acquisition_stacks and stack:
            if len(self.acquisition_stacks) < 4096:
                key = tuple(f.location for f in stack.suffix(5))
                self.acquisition_stacks.setdefault(key, stack)
        state.held[lock_id] = _HeldLock(lock_id, stack)
        state.waiting_lock = None
        state.waiting_stack = None
        # If this thread was designated a victim but escaped (the cycle
        # broke some other way), the stale flag must not poison a later,
        # unrelated acquisition.
        state.victim_signature = False
        state.yield_permit = False
        self._holders[lock_id] = state.tid
        self.stats.acquisitions += 1

    def _stop_waiting(self, state: _ThreadState) -> None:
        """The acquire gave up (timeout or victim raise)."""
        state.waiting_lock = None
        state.waiting_stack = None
        state.victim_signature = False
        self._wake_avoiders(state.tid)
        self._gc_thread(state.tid)

    def release(self, lock) -> None:
        tid = threading.get_ident()
        lock_id = lock.lock_id
        with self._monitor:
            state = self._threads.get(tid)
            if state is None or lock_id not in state.held:
                raise RuntimeError(
                    f"thread {tid} released lock {lock_id} it does not hold"
                )
            del state.held[lock_id]
            del self._holders[lock_id]
            self.stats.releases += 1
            lock.waiters.notify()
            self._wake_avoiders(tid)
            self._gc_thread(tid)

    # ------------------------------------------------------------ avoidance
    def _pass_avoidance(self, state: _ThreadState, lock_id: int,
                        stack: CallStack, deadline: float | None) -> bool:
        """Suspend the caller while granting ``lock_id`` would complete a
        signature instantiation.  Returns False on timeout."""
        tid = state.tid
        max_block = self.config.max_avoidance_block
        blocked_since: float | None = None
        while True:
            match = self.avoidance.find_danger(
                tid, lock_id, stack, self._views_excluding(tid)
            )
            if match is None:
                # A permit granted for a pattern that has since dissolved
                # must not linger and bypass a future, unrelated block.
                state.yield_permit = False
                break
            if state.yield_permit:
                state.yield_permit = False
                self.events.emit(
                    EventKind.AVOIDANCE_YIELD_GRANTED,
                    timestamp=self.clock.now(),
                    tid=tid,
                    sig_id=match.signature.sig_id,
                )
                break
            if blocked_since is None:
                blocked_since = time.monotonic()
                self.stats.avoidance_blocks += 1
                self.fp.record_instantiation(match.signature.sig_id)
                self.events.emit(
                    EventKind.AVOIDANCE_BLOCK,
                    timestamp=self.clock.now(),
                    tid=tid,
                    lock_id=lock_id,
                    sig_id=match.signature.sig_id,
                )
                self._avoiders[tid] = state
            state.avoidance_match = match
            # Every cycle through this wait contains this avoider, so the
            # walk can only grant a yield permit, never capture a signature.
            self._detect(state)
            if state.yield_permit:
                continue
            wait_for = None
            if deadline is not None:
                wait_for = deadline - time.monotonic()
                if wait_for <= 0:
                    self._finish_avoidance(state, blocked_since)
                    return False
            if max_block is not None:
                left = max_block - (time.monotonic() - blocked_since)
                if left <= 0:
                    self.stats.yields_granted += 1
                    self.events.emit(
                        EventKind.AVOIDANCE_YIELD_GRANTED,
                        timestamp=self.clock.now(),
                        tid=tid,
                        sig_id=match.signature.sig_id,
                        reason="max_avoidance_block",
                    )
                    break
                wait_for = left if wait_for is None else min(wait_for, left)
            self._avoidance_wakeup.wait(wait_for)
        self._finish_avoidance(state, blocked_since)
        return True

    def _finish_avoidance(self, state: _ThreadState,
                          blocked_since: float | None) -> None:
        state.avoidance_match = None
        if blocked_since is not None:
            del self._avoiders[state.tid]
            waited = time.monotonic() - blocked_since
            self.stats.avoidance_wait_seconds += waited
            self.events.emit(
                EventKind.AVOIDANCE_RESUME,
                timestamp=self.clock.now(),
                tid=state.tid,
                waited=waited,
            )

    def _wake_avoiders(self, tid: int) -> None:
        """``tid`` released a lock or stopped waiting: if it is part of some
        avoidance waiter's dangerous pattern, wake the avoidance waiters."""
        for avoider in self._avoiders.values():
            if tid in avoider.avoidance_match.matched_tids:
                self._avoidance_wakeup.notify_all()
                return

    # ------------------------------------------------------------ detection
    def _wait_edges(self, tid: int) -> tuple[int, ...]:
        """Whom ``tid`` waits for: the holder of the lock it is blocked on,
        or the threads of the pattern that suspends it in avoidance."""
        state = self._threads.get(tid)
        if state is None:
            return ()
        if state.waiting_lock is not None:
            holder = self._holders.get(state.waiting_lock.lock_id)
            return () if holder is None else (holder,)
        if state.avoidance_match is not None:
            return state.avoidance_match.matched_tids
        return ()

    def _cycle_through(self, tid: int) -> list[int] | None:
        """A wait-for cycle from ``tid`` back to itself, in wait order
        (each thread waits for the next), or None."""
        path = [tid]
        pending = [iter(self._wait_edges(tid))]
        seen = {tid}
        while pending:
            for target in pending[-1]:
                if target == tid:
                    return path
                if target not in seen:
                    seen.add(target)
                    path.append(target)
                    pending.append(iter(self._wait_edges(target)))
                    break
            else:
                pending.pop()
                path.pop()
        return None

    def _detect(self, state: _ThreadState):
        """Walk the wait-for graph from ``state``'s new edge.

        An avoidance-induced cycle gets a yield permit for its smallest
        suspended tid.  A real cycle designates a victim, ``max(cycle)``, or
        the thread itself in a self-deadlock; for those this returns the
        ``(signature, events)`` that :meth:`_publish` records once the
        monitor is released.
        """
        cycle = self._cycle_through(state.tid)
        if cycle is None:
            return None
        avoiders = [t for t in cycle
                    if self._threads[t].avoidance_match is not None]
        if avoiders:
            chosen = self._threads[min(avoiders)]
            if not chosen.yield_permit:
                chosen.yield_permit = True
                self.stats.yields_granted += 1
                self._avoidance_wakeup.notify_all()
            return None
        self.stats.victims_designated += 1
        if len(cycle) == 1:
            self.stats.self_deadlocks += 1
            state.victim_signature = None
            return None, [(EventKind.SELF_DEADLOCK, {"tid": state.tid}),
                          (EventKind.VICTIM_RAISED, {"tid": state.tid})]
        self.stats.deadlocks_detected += 1
        signature = self._extract_signature(cycle)
        victim = self._threads[max(cycle)]
        victim.victim_signature = signature
        victim.waiting_lock.waiters.notify_all()
        return signature, [
            (EventKind.DEADLOCK_DETECTED,
             {"tids": tuple(cycle),
              "sig_id": signature.sig_id if signature else None}),
            (EventKind.VICTIM_RAISED, {"tid": victim.tid}),
        ]

    def _publish(self, signature: DeadlockSignature | None,
                 emits: list[tuple]) -> None:
        # History writes and event emission happen outside the monitor so
        # that listeners (e.g. the Communix plugin's upload) can do I/O.
        if signature is not None:
            if self.history.add(signature):
                self.stats.signatures_saved += 1
                self.events.emit(
                    EventKind.SIGNATURE_SAVED,
                    timestamp=self.clock.now(),
                    sig_id=signature.sig_id,
                )
            else:
                # Same manifestation as an existing entry: a true positive
                # for that signature (the bug bit again despite avoidance).
                self.fp.record_true_positive(signature.sig_id)
        for kind, payload in emits:
            self.events.emit(kind, timestamp=self.clock.now(), **payload)

    def _extract_signature(self, cycle: list[int]) -> DeadlockSignature | None:
        """Outer stack: where each thread acquired the lock the *previous*
        thread in the cycle is waiting for; inner stack: where it blocks."""
        n = len(cycle)
        thread_sigs = []
        for i, tid in enumerate(cycle):
            state = self._threads[tid]
            prev_state = self._threads[cycle[(i - 1) % n]]
            held = state.held[prev_state.waiting_lock.lock_id]
            if not held.stack or not state.waiting_stack:
                return None
            thread_sigs.append(
                ThreadSignature(outer=held.stack, inner=state.waiting_stack)
            )
        return DeadlockSignature(threads=tuple(thread_sigs), origin=ORIGIN_LOCAL)

    # ------------------------------------------------------- user actions
    def keep_signature(self, sig_id: str) -> None:
        """Respond to a false-positive warning by keeping the signature
        (§III-C1: "the user can decide to keep S, if he/she notices no
        change in the behavior of the application")."""
        self.fp.keep(sig_id)

    def discard_signature(self, sig_id: str) -> bool:
        """Respond to a false-positive warning by dropping the signature
        from the history; avoidance stops matching it immediately."""
        removed = self.history.remove(sig_id)
        with self._monitor:
            self._avoidance_wakeup.notify_all()
        return removed

    # ---------------------------------------------------------- inspection
    def held_locks(self) -> dict[int, int]:
        with self._monitor:
            return dict(self._holders)

    def thread_count(self) -> int:
        with self._monitor:
            return len(self._threads)
