"""Instrumented locks and the threading monkey-patch.

:class:`DimmunixLock` is a drop-in replacement for ``threading.Lock`` whose
state lives in a :class:`DimmunixRuntime`: the runtime's owner table says
who holds it, and a blocked acquire waits on the lock's condition, built
over the runtime's monitor.  An acquire captures the caller's stack (the
would-be outer call stack) and hands it to ``runtime.acquire``, which runs
the avoidance gate, the take and the bookkeeping as one transition.  A
deadlock is detected when the thread that closes it blocks, and the victim
raises :class:`DeadlockError` where the real Dimmunix leaves the JVM hung;
see "Client half: the Dimmunix runtime" in ``docs/architecture.md``.

:func:`patch_threading` swaps ``threading.Lock``/``threading.RLock`` for
instrumented factories for the duration of a ``with`` block — the moral
equivalent of the paper's AspectJ weaving for programs that cannot be
modified.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager

from repro.dimmunix.frames import capture_stack
from repro.dimmunix.runtime import DimmunixRuntime

_LOCK_IDS = itertools.count(1)

_global_runtime: DimmunixRuntime | None = None
_global_runtime_guard = threading.Lock()


def get_runtime() -> DimmunixRuntime:
    """The process-global runtime, created on first use."""
    global _global_runtime
    with _global_runtime_guard:
        if _global_runtime is None:
            _global_runtime = DimmunixRuntime()
        return _global_runtime


def set_runtime(runtime: DimmunixRuntime | None) -> DimmunixRuntime | None:
    """Replace the process-global runtime; returns the previous one."""
    global _global_runtime
    with _global_runtime_guard:
        previous, _global_runtime = _global_runtime, runtime
        return previous


class DimmunixLock:
    """A non-reentrant mutex immunized by Dimmunix."""

    def __init__(self, runtime: DimmunixRuntime | None = None,
                 name: str | None = None):
        self._runtime = runtime if runtime is not None else get_runtime()
        self.lock_id = next(_LOCK_IDS)
        self.name = name or f"lock-{self.lock_id}"
        #: Where blocked acquirers wait: a release wakes one of them, a
        #: victim designation all of them.
        self.waiters = self._runtime.condition()

    # ------------------------------------------------------------ protocol
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        runtime = self._runtime
        stack = capture_stack(
            skip=1,
            limit=runtime.config.capture_depth,
            blacklist=runtime.config.frame_blacklist,
        )
        deadline = None
        if timeout is not None and timeout >= 0:
            deadline = time.monotonic() + timeout
        return runtime.acquire(self, stack, blocking, deadline)

    def release(self) -> None:
        self._runtime.release(self)

    def locked(self) -> bool:
        return self.lock_id in self._runtime.held_locks()

    def __enter__(self) -> "DimmunixLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DimmunixLock {self.name} id={self.lock_id}>"


class DimmunixRLock:
    """A reentrant mutex immunized by Dimmunix.

    Only the outermost acquire/release interacts with the runtime — nested
    acquisitions by the owner cannot deadlock and are not lock acquisitions
    from the avoidance module's point of view.
    """

    def __init__(self, runtime: DimmunixRuntime | None = None,
                 name: str | None = None):
        self._base = DimmunixLock(runtime, name)
        self._owner: int | None = None
        self._count = 0

    @property
    def name(self) -> str:
        return self._base.name

    @property
    def lock_id(self) -> int:
        return self._base.lock_id

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        me = threading.get_ident()
        if self._owner == me:
            self._count += 1
            return True
        got = self._base.acquire(blocking, timeout)
        if got:
            self._owner = me
            self._count = 1
        return got

    def release(self) -> None:
        if self._owner != threading.get_ident():
            raise RuntimeError("cannot release un-acquired RLock")
        self._count -= 1
        if self._count == 0:
            self._owner = None
            self._base.release()

    def __enter__(self) -> "DimmunixRLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    # threading.Condition compatibility hooks
    def _is_owned(self) -> bool:
        return self._owner == threading.get_ident()

    def _release_save(self):
        count, owner = self._count, self._owner
        self._count = 0
        self._owner = None
        self._base.release()
        return (count, owner)

    def _acquire_restore(self, saved) -> None:
        count, owner = saved
        self._base.acquire()
        self._count = count
        self._owner = owner


@contextmanager
def patch_threading(runtime: DimmunixRuntime | None = None):
    """Temporarily replace ``threading.Lock``/``RLock`` with immunized
    factories, so code constructing locks inside the ``with`` block is
    transparently protected (the AspectJ-weaving substitute).

    Yields the runtime in use.  Locks created before or after the block are
    untouched, as are internal locks the interpreter created at bootstrap.
    """
    active = runtime if runtime is not None else get_runtime()
    original_lock = threading.Lock
    original_rlock = threading.RLock

    def lock_factory():
        return DimmunixLock(active)

    def rlock_factory():
        return DimmunixRLock(active)

    threading.Lock = lock_factory
    threading.RLock = rlock_factory
    try:
        yield active
    finally:
        threading.Lock = original_lock
        threading.RLock = original_rlock
