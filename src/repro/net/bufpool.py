"""Reusable receive buffers for ``recv_into`` hot paths.

``sock.recv(n)`` allocates a fresh ``n``-byte ``bytes`` object on *every*
call — at a 256 KiB read chunk and tens of thousands of read events per
second, the allocator churn is a measurable slice of the event loop's CPU.
:class:`BufferPool` removes it (``tests/net/test_bufpool.py`` and
``tests/server/test_transport.py``'s ``allocated <= 2`` pin it):
readers borrow a preallocated ``bytearray`` for the duration of one
``recv_into`` call and return it immediately after copying the received
span out, so the steady state is **zero allocations per read** — the pool
holds one buffer per concurrently-reading thread (the event loop borrows
and returns within a single callback, so a single-threaded loop tops out
at one buffer).

The pool is thread-safe without a lock: ``deque.append``/``pop`` are
atomic under the GIL.  A returned buffer's *contents* are not cleared —
borrowers must treat ``acquire()`` as uninitialized memory and only trust
the ``[:n]`` span their own ``recv_into`` reported.
"""

from __future__ import annotations

import collections


class BufferPool:
    """A free list of equal-sized ``bytearray`` receive buffers."""

    __slots__ = ("buffer_size", "max_free", "allocated", "_free")

    def __init__(self, buffer_size: int, max_free: int = 4):
        if buffer_size < 1:
            raise ValueError("buffer_size must be positive")
        self.buffer_size = buffer_size
        #: Buffers kept for reuse; beyond this, released buffers are simply
        #: dropped (a burst of concurrent readers must not pin its
        #: high-water mark in memory forever).
        self.max_free = max(1, max_free)
        #: Total buffers ever allocated — the regression counter the tests
        #: pin: a steady single-threaded read loop must never grow it past
        #: its first read.
        self.allocated = 0
        self._free: collections.deque[bytearray] = collections.deque()

    def acquire(self) -> bytearray:
        """Borrow a buffer (uninitialized contents)."""
        try:
            return self._free.pop()
        except IndexError:
            self.allocated += 1
            return bytearray(self.buffer_size)

    def release(self, buf: bytearray) -> None:
        """Return a borrowed buffer.  Foreign or resized buffers are
        rejected silently — recycling a wrong-sized buffer would hand a
        short read target to the next ``recv_into``."""
        if len(buf) == self.buffer_size and len(self._free) < self.max_free:
            self._free.append(buf)

    @property
    def free_count(self) -> int:
        return len(self._free)

    def stats(self) -> dict[str, int]:
        """Occupancy counters for the observability layer."""
        return {
            "buffer_size": self.buffer_size,
            "allocated": self.allocated,
            "free": len(self._free),
        }
