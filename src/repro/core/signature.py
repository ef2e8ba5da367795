"""Deadlock signatures: frames, call stacks, and their algebra (paper §II-A).

A deadlock signature consists of, for each deadlocked thread, the call stack
it had when it *acquired* the lock involved in the deadlock (the **outer**
call stack) and the call stack it had at the moment of the deadlock (the
**inner** call stack).  The top frames of these stacks are the outer and
inner *lock statements*; a deadlock bug is uniquely delimited by them.

Conventions used throughout this library:

* A call stack is a tuple of frames ordered bottom -> top; **the top frame is
  the last element** (matching the paper's ``[c1.m1:l1:h1, ..., cn.mn:ln:hn]``
  encoding where frame *n* is the top).
* A frame's *location* is ``(class_name, method, line)``.  Runtime matching
  compares locations only; bytecode hashes are a validation-time concern.
* A runtime stack *matches* a signature stack iff the signature stack's
  locations are a suffix of the runtime stack's locations.  In particular the
  top frames must coincide, which is what allows Dimmunix to index its
  history by top-frame location (see :mod:`repro.dimmunix.avoidance`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable

from repro.util.encoding import canonical_json, from_canonical_json, stable_hash
from repro.util.errors import ValidationError

#: Origin markers.  Local signatures were produced by this node's Dimmunix;
#: remote ones arrived through Communix and are subject to the stricter
#: validation rules (depth >= 5, nesting check).
ORIGIN_LOCAL = "local"
ORIGIN_REMOTE = "remote"


@dataclass(frozen=True, order=True)
class Frame:
    """One call-stack frame: ``class.method:line:hash``.

    ``code_hash`` is the (truncated) hash of the bytecode of the class that
    contains the frame, attached by the Communix plugin when the signature is
    produced; an empty string means "unknown" (e.g. a freshly captured local
    frame before the plugin annotates it).
    """

    class_name: str
    method: str
    line: int
    code_hash: str = ""

    @property
    def location(self) -> tuple[str, str, int]:
        return (self.class_name, self.method, self.line)

    def with_hash(self, code_hash: str) -> "Frame":
        return Frame(self.class_name, self.method, self.line, code_hash)

    def encode(self) -> str:
        return f"{self.class_name}.{self.method}:{self.line}:{self.code_hash}"

    @staticmethod
    def decode(text: str) -> "Frame":
        try:
            loc, line, code_hash = text.rsplit(":", 2)
            class_name, method = loc.rsplit(".", 1)
            return Frame(class_name, method, int(line), code_hash)
        except ValueError as exc:
            raise ValidationError(f"malformed frame {text!r}") from exc

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.class_name}.{self.method}:{self.line}"


class CallStack(tuple):
    """An immutable stack of :class:`Frame` objects, bottom -> top."""

    def __new__(cls, frames: Iterable[Frame] = ()):
        return super().__new__(cls, tuple(frames))

    @property
    def top(self) -> Frame:
        if not self:
            raise ValidationError("empty call stack has no top frame")
        return self[-1]

    @property
    def depth(self) -> int:
        return len(self)

    def locations(self) -> tuple[tuple[str, str, int], ...]:
        return tuple(f.location for f in self)

    def matches(self, runtime_stack: "CallStack") -> bool:
        """True iff this (signature) stack is a location-suffix of ``runtime_stack``."""
        if len(self) > len(runtime_stack):
            return False
        if not self:
            return False
        offset = len(runtime_stack) - len(self)
        for i, frame in enumerate(self):
            if frame.location != runtime_stack[offset + i].location:
                return False
        return True

    def common_suffix(self, other: "CallStack") -> "CallStack":
        """Longest common suffix by *location* (generalization, §III-D).

        Hashes are kept from ``self`` where the locations agree; merging only
        ever happens between stacks validated against the same application,
        so the hashes agree wherever the locations do.
        """
        result: list[Frame] = []
        for mine, theirs in zip(reversed(self), reversed(other)):
            if mine.location != theirs.location:
                break
            result.append(mine)
        result.reverse()
        return CallStack(result)

    def suffix(self, depth: int) -> "CallStack":
        """The top-most ``depth`` frames (the whole stack if shorter)."""
        if depth <= 0:
            return CallStack()
        return CallStack(self[-depth:])

    def encode(self) -> list[str]:
        return [f.encode() for f in self]

    @staticmethod
    def decode(items: Iterable[str]) -> "CallStack":
        return CallStack(Frame.decode(item) for item in items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CallStack[" + " <- ".join(str(f) for f in reversed(self)) + "]"


@dataclass(frozen=True)
class ThreadSignature:
    """One deadlocked thread's contribution: outer + inner call stacks."""

    outer: CallStack
    inner: CallStack

    def __post_init__(self):
        if not self.outer or not self.inner:
            raise ValidationError("thread signature requires non-empty stacks")

    @property
    def bug_key(self) -> tuple[tuple[str, str, int], tuple[str, str, int]]:
        """The (outer lock statement, inner lock statement) location pair."""
        return (self.outer.top.location, self.inner.top.location)

    def encode(self) -> dict[str, Any]:
        return {"outer": self.outer.encode(), "inner": self.inner.encode()}

    @staticmethod
    def decode(obj: dict[str, Any]) -> "ThreadSignature":
        try:
            return ThreadSignature(
                outer=CallStack.decode(obj["outer"]),
                inner=CallStack.decode(obj["inner"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError("malformed thread signature") from exc


def _thread_sort_key(thread: ThreadSignature) -> tuple:
    encoded = thread.encode()
    return encoded["outer"], encoded["inner"]


def _canonical_thread_order(threads: Iterable[ThreadSignature]) -> tuple[ThreadSignature, ...]:
    """Signatures are unordered sets of thread stacks; store them sorted so
    that equality and content hashes are representation-independent."""
    return tuple(sorted(threads, key=_thread_sort_key))


@dataclass(frozen=True)
class DeadlockSignature:
    """A full deadlock signature (one entry of the deadlock history).

    ``origin`` is node-local metadata (local vs remote) and is *excluded*
    from identity, serialization, and the content hash: the same deadlock
    observed on two machines yields byte-identical wire signatures.
    """

    threads: tuple[ThreadSignature, ...]
    origin: str = field(default=ORIGIN_LOCAL, compare=False)

    def __post_init__(self):
        if len(self.threads) < 2:
            raise ValidationError("a deadlock involves at least two threads")
        object.__setattr__(self, "threads", _canonical_thread_order(self.threads))

    # ------------------------------------------------------------------ id
    # cached_property is safe on frozen dataclasses (it writes through
    # __dict__, and signatures are deeply immutable), and it matters: the
    # avoidance hot path and the generalizer consult these constantly.
    @cached_property
    def sig_id(self) -> str:
        return stable_hash(self.to_bytes())

    # ------------------------------------------------------------- keys
    @cached_property
    def bug_key(self) -> tuple:
        """Multiset of (outer-top, inner-top) location pairs.

        Two signatures represent the same deadlock bug iff their bug keys are
        equal (§III-D: "the top frames of S have to be identical to the top
        frames of S'").
        """
        return tuple(sorted(t.bug_key for t in self.threads))

    @cached_property
    def top_frames(self) -> frozenset:
        """Set of top-frame locations, for the server's adjacency check."""
        locs = set()
        for t in self.threads:
            locs.add(t.outer.top.location)
            locs.add(t.inner.top.location)
        return frozenset(locs)

    def is_adjacent_to(self, other: "DeadlockSignature") -> bool:
        """§III-C2: adjacent = some, but not all, top frames in common."""
        mine, theirs = self.top_frames, other.top_frames
        common = mine & theirs
        return bool(common) and mine != theirs

    # ------------------------------------------------------------ depths
    @property
    def min_outer_depth(self) -> int:
        return min(t.outer.depth for t in self.threads)

    # ------------------------------------------------------ serialization
    def encode(self) -> dict[str, Any]:
        return {"version": 1, "threads": [t.encode() for t in self.threads]}

    def to_bytes(self) -> bytes:
        return canonical_json(self.encode())

    @staticmethod
    def decode(obj: dict[str, Any], origin: str = ORIGIN_REMOTE) -> "DeadlockSignature":
        if not isinstance(obj, dict) or obj.get("version") != 1:
            raise ValidationError("unsupported signature encoding")
        threads = obj.get("threads")
        if not isinstance(threads, list) or len(threads) < 2:
            raise ValidationError("signature must list >= 2 threads")
        return DeadlockSignature(
            threads=tuple(ThreadSignature.decode(t) for t in threads),
            origin=origin,
        )

    @staticmethod
    def from_bytes(data: bytes, origin: str = ORIGIN_REMOTE) -> "DeadlockSignature":
        try:
            obj = from_canonical_json(data)
        except ValueError as exc:
            raise ValidationError("signature is not valid JSON") from exc
        return DeadlockSignature.decode(obj, origin=origin)

    def with_origin(self, origin: str) -> "DeadlockSignature":
        if origin == self.origin:
            return self
        return DeadlockSignature(threads=self.threads, origin=origin)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tops = ", ".join(
            f"{t.outer.top}~{t.inner.top}" for t in self.threads
        )
        return f"DeadlockSignature<{self.sig_id}:{tops}>"
