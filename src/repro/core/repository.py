"""The local signature repository (paper §III-B).

The Communix *client* downloads new signatures from the server into this
per-machine repository; the Communix *agent* inspects it at application
startup.  Two invariants from the paper:

* downloads are **incremental** — the repository remembers the server index
  it has reached, and the client only requests what is missing (``GET(n+1)``);
* inspection is **incremental per application** — every signature is
  analyzed only once per application, so the repository keeps a cursor for
  each application key, plus the set of signatures that passed the hash
  check but failed the nesting check (those are re-checked when the
  application loads new classes).

A file-backed repository is a directory: the server's own
:class:`~repro.store.wal.SegmentedLog` with one record per stored
signature (its ``u64`` is the signature's server index), plus a
``state.json`` sidecar with the server index, cursors and pending sets.
A page is one fsync'd log commit, then a sidecar replace.  A reopen
resumes at least from ``last record + 1`` (a crash between the two costs
a re-fetch that dedup absorbs); if recovery cut a damaged tail, it
rewinds there and clamps the cursors (``docs/architecture.md`` §7).
"""

from __future__ import annotations

import gc
import json
import os
import threading
from pathlib import Path

from repro.core.signature import DeadlockSignature, ORIGIN_REMOTE
from repro.store.wal import SegmentedLog, durable_replace
from repro.util.errors import HistoryError, ValidationError

STATE_NAME = "state.json"


class LocalRepository:
    """An append-only, optionally file-backed store of remote signatures."""

    def __init__(self, path: str | os.PathLike | None = None):
        self._path = Path(path) if path is not None else None
        self._lock = threading.RLock()
        self._signatures: list[DeadlockSignature] = []
        self._ids: set[str] = set()
        self._server_index = 0  # next index to request from the server
        self._cursors: dict[str, int] = {}
        self._pending_nesting: dict[str, list[int]] = {}
        self._log: SegmentedLog | None = None
        if self._path is not None:
            self._open()

    # ------------------------------------------------------------- content
    def __len__(self) -> int:
        with self._lock:
            return len(self._signatures)

    @property
    def server_index(self) -> int:
        """The next server database index this repository needs."""
        with self._lock:
            return self._server_index

    def append_from_server(self, signatures: list[DeadlockSignature],
                           next_server_index: int | None = None) -> int:
        """Store a batch downloaded from the server (in server order)."""
        added = 0
        with self._lock:
            # A record's index must not exceed the real one, or a reopen
            # would resume past it.
            first = self._server_index
            if next_server_index is not None:
                first = max(0, min(first, next_server_index - len(signatures)))
            for offset, sig in enumerate(signatures):
                sig = sig.with_origin(ORIGIN_REMOTE)
                if sig.sig_id in self._ids:
                    continue
                if self._log is not None:
                    self._log.append_unflushed(sig.to_bytes(), first + offset)
                self._signatures.append(sig)
                self._ids.add(sig.sig_id)
                added += 1
            if added and self._log is not None:
                self._log.commit_appended(self._log.record_count)
            if next_server_index is not None:
                self._server_index = max(self._server_index, next_server_index)
            else:
                self._server_index += len(signatures)
            self._save_state()  # server_index moves even on all-duplicate batches
        return added

    def signature_at(self, index: int) -> DeadlockSignature:
        with self._lock:
            return self._signatures[index]

    # ----------------------------------------------- per-application state
    def new_signatures_for(self, app_key: str) -> list[tuple[int, DeadlockSignature]]:
        """Signatures this application has not inspected yet."""
        with self._lock:
            cursor = self._cursors.get(app_key, 0)
            return list(enumerate(self._signatures[cursor:], start=cursor))

    def advance_cursor(self, app_key: str, new_cursor: int) -> None:
        with self._lock:
            self._cursors[app_key] = max(self._cursors.get(app_key, 0), new_cursor)
            self._save_state()

    def get_cursor(self, app_key: str) -> int:
        with self._lock:
            return self._cursors.get(app_key, 0)

    def pending_nesting(self, app_key: str) -> list[int]:
        """Indices that passed the hash check but failed the nesting check;
        to be re-checked when the application loads new classes."""
        with self._lock:
            return list(self._pending_nesting.get(app_key, []))

    def set_pending_nesting(self, app_key: str, indices: list[int]) -> None:
        with self._lock:
            self._pending_nesting[app_key] = sorted(set(indices))
            self._save_state()

    # --------------------------------------------------------- persistence
    def close(self) -> None:
        """Flush and release the log (a no-op in memory)."""
        if self._log is not None:
            self._log.close()

    def _save_state(self) -> None:
        """Replace the small sidecar: server index, cursors, pending."""
        if self._path is None:
            return
        durable_replace(str(self._path / STATE_NAME), json.dumps({
            "server_index": self._server_index,
            "cursors": self._cursors,
            "pending_nesting": self._pending_nesting,
        }).encode("utf-8"))

    def _open(self) -> None:
        if self._path.exists() and not self._path.is_dir():
            raise HistoryError(f"repository {self._path} is a file, "
                               "not a directory of log segments")
        gc_was_enabled = gc.isenabled()
        gc.disable()  # as in SignatureStore: the parse builds only acyclic objects
        try:
            state_path = self._path / STATE_NAME
            state = json.loads(state_path.read_bytes()) if state_path.exists() else {}
            self._log = SegmentedLog(str(self._path))
            indices, blobs = self._log.recovered_columns()
            self._signatures = [DeadlockSignature.from_bytes(b) for b in blobs]
            self._ids = {sig.sig_id for sig in self._signatures}
        except (OSError, ValueError, ValidationError) as exc:
            raise HistoryError(f"cannot read repository {self._path}: {exc}") from exc
        finally:
            if gc_was_enabled:
                gc.enable()
        count = len(self._signatures)
        resume = indices[-1] + 1 if indices else 0
        recovery = self._log.recovery
        if not (recovery.truncated_bytes or recovery.orphaned_segments):
            resume = max(int(state.get("server_index", 0)), resume)
        self._server_index = resume
        cursors, pending = state.get("cursors", {}), state.get("pending_nesting", {})
        self._cursors = {key: min(int(c), count) for key, c in cursors.items()}
        self._pending_nesting = {key: [i for i in map(int, p) if i < count]
                                 for key, p in pending.items()}
