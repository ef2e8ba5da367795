"""The persistent deadlock history (paper §II-A).

Dimmunix "extracts the signature of the deadlock, stores it in a persistent
history, then alters future thread schedules [...] to avoid execution flows
matching the signature".  The history is the single source of truth shared
by the avoidance module (which indexes it by outer-top location), the
Communix agent (which adds validated remote signatures and performs merges),
and the plugin (which uploads newly added local signatures).

Thread-safety: every mutation happens under an internal lock and bumps a
``version`` counter; readers (the avoidance module) take an immutable
snapshot and rebuild their index only when the version changed, which keeps
the runtime hot path cheap.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Callable, Iterable

from repro.core.signature import DeadlockSignature
from repro.store.wal import durable_replace
from repro.util.errors import HistoryError
from repro.util.logging import get_logger

log = get_logger("core.history")


class DeadlockHistory:
    """An in-memory, optionally file-backed set of deadlock signatures."""

    def __init__(self, path: str | os.PathLike | None = None,
                 autosave: bool = True):
        self._path = Path(path) if path is not None else None
        self._autosave = autosave and self._path is not None
        self._lock = threading.RLock()
        self._signatures: list[DeadlockSignature] = []
        self._by_id: dict[str, DeadlockSignature] = {}
        self._by_bug: dict[tuple, list[DeadlockSignature]] = {}
        self.version = 0
        self._listeners: list[Callable[[DeadlockSignature], None]] = []
        if self._path is not None and self._path.exists():
            self.load(self._path)

    # ------------------------------------------------------------- queries
    def __len__(self) -> int:
        with self._lock:
            return len(self._signatures)

    def __contains__(self, sig: DeadlockSignature) -> bool:
        with self._lock:
            return sig.sig_id in self._by_id

    def snapshot(self) -> tuple[DeadlockSignature, ...]:
        """An immutable view for lock-free iteration by readers."""
        with self._lock:
            return tuple(self._signatures)

    def get(self, sig_id: str) -> DeadlockSignature | None:
        with self._lock:
            return self._by_id.get(sig_id)

    def same_bug(self, sig: DeadlockSignature) -> list[DeadlockSignature]:
        """Existing signatures with the same bug key (§III-D merge targets)."""
        with self._lock:
            return list(self._by_bug.get(sig.bug_key, ()))

    # ----------------------------------------------------------- mutation
    def add(self, sig: DeadlockSignature) -> bool:
        """Add a signature; returns False (and does nothing) on duplicates."""
        with self._lock:
            if sig.sig_id in self._by_id:
                return False
            self._signatures.append(sig)
            self._by_id[sig.sig_id] = sig
            self._by_bug.setdefault(sig.bug_key, []).append(sig)
            self.version += 1
            listeners = list(self._listeners)
        log.info("history: added signature %s (origin=%s)", sig.sig_id, sig.origin)
        if self._autosave:
            self.save()
        for listener in listeners:
            listener(sig)
        return True

    def replace(self, old: DeadlockSignature, new: DeadlockSignature) -> bool:
        """Swap ``old`` for ``new`` (generalization merges, §III-D)."""
        with self._lock:
            if old.sig_id not in self._by_id:
                return False
            stored_old = self._by_id[old.sig_id]
            if new.sig_id in self._by_id and new.sig_id != old.sig_id:
                # The merge result already exists; just drop the old entry.
                self._signatures.remove(stored_old)
                del self._by_id[old.sig_id]
                self._unindex_bug(stored_old)
            else:
                index = self._signatures.index(stored_old)
                self._signatures[index] = new
                del self._by_id[old.sig_id]
                self._unindex_bug(stored_old)
                self._by_id[new.sig_id] = new
                self._by_bug.setdefault(new.bug_key, []).append(new)
            self.version += 1
        if self._autosave:
            self.save()
        return True

    def remove(self, sig_id: str) -> bool:
        with self._lock:
            sig = self._by_id.pop(sig_id, None)
            if sig is None:
                return False
            self._signatures.remove(sig)
            self._unindex_bug(sig)
            self.version += 1
        if self._autosave:
            self.save()
        return True

    def clear(self) -> None:
        with self._lock:
            self._signatures.clear()
            self._by_id.clear()
            self._by_bug.clear()
            self.version += 1

    def _unindex_bug(self, sig: DeadlockSignature) -> None:
        bucket = self._by_bug.get(sig.bug_key)
        if bucket is None:
            return
        bucket[:] = [s for s in bucket if s.sig_id != sig.sig_id]
        if not bucket:
            del self._by_bug[sig.bug_key]

    # ----------------------------------------------------------- listeners
    def add_listener(self, callback: Callable[[DeadlockSignature], None]) -> None:
        """Register a callback invoked (outside the lock) for each added
        signature — the Communix plugin uses this to upload new local ones."""
        with self._lock:
            self._listeners.append(callback)

    # --------------------------------------------------------- persistence
    def save(self, path: str | os.PathLike | None = None) -> None:
        target = Path(path) if path is not None else self._path
        if target is None:
            raise HistoryError("no history path configured")
        with self._lock:
            records = [
                {"origin": s.origin, "signature": s.encode()}
                for s in self._signatures
            ]
        target.parent.mkdir(parents=True, exist_ok=True)
        data = json.dumps({"version": 1, "entries": records})
        durable_replace(str(target), data.encode("utf-8"))

    def load(self, path: str | os.PathLike) -> int:
        """Load signatures from ``path``, merging into the current set."""
        target = Path(path)
        try:
            with open(target, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            raise HistoryError(f"cannot read history {target}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("version") != 1:
            raise HistoryError(f"unsupported history format in {target}")
        loaded = 0
        autosave = self._autosave
        self._autosave = False  # avoid rewriting the file per entry
        try:
            for record in payload.get("entries", []):
                try:
                    sig = DeadlockSignature.decode(
                        record["signature"], origin=record.get("origin", "local")
                    )
                except Exception as exc:
                    raise HistoryError(f"corrupt history entry: {exc}") from exc
                if self.add(sig):
                    loaded += 1
        finally:
            self._autosave = autosave
        return loaded

    def merge_from(self, signatures: Iterable[DeadlockSignature]) -> int:
        added = 0
        for sig in signatures:
            if self.add(sig):
                added += 1
        return added
