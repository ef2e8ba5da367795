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

Persistence is split into two files so the two update rates never pay for
each other: the main file holds the (append-only, potentially large)
signature list and is rewritten only when new signatures arrive, while a
small *sidecar* (``<path>.state``) holds the server index, per-app cursors
and pending-nesting sets — so a cursor bump after an agent inspection
serializes a few dozen bytes, not the whole repository.  This split
layout (``"version": 2``) is the only one read; any other file is a
:class:`HistoryError`.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from repro.core.signature import DeadlockSignature, ORIGIN_REMOTE
from repro.util.errors import HistoryError


class LocalRepository:
    """An append-only, optionally file-backed store of remote signatures."""

    def __init__(self, path: str | os.PathLike | None = None):
        self._path = Path(path) if path is not None else None
        self._state_path = (
            self._path.with_suffix(self._path.suffix + ".state")
            if self._path is not None else None
        )
        self._lock = threading.RLock()
        self._signatures: list[DeadlockSignature] = []
        self._ids: set[str] = set()
        self._server_index = 0  # next index to request from the server
        self._cursors: dict[str, int] = {}
        self._pending_nesting: dict[str, list[int]] = {}
        if self._path is not None and self._path.exists():
            self._load()

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
            for sig in signatures:
                sig = sig.with_origin(ORIGIN_REMOTE)
                if sig.sig_id in self._ids:
                    continue
                self._signatures.append(sig)
                self._ids.add(sig.sig_id)
                added += 1
            if next_server_index is not None:
                self._server_index = max(self._server_index, next_server_index)
            else:
                self._server_index += len(signatures)
        if added:
            self._save_signatures()
        self._save_state()  # server_index moves even on all-duplicate batches
        return added

    def signature_at(self, index: int) -> DeadlockSignature:
        with self._lock:
            return self._signatures[index]

    def all_signatures(self) -> list[DeadlockSignature]:
        with self._lock:
            return list(self._signatures)

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
    @staticmethod
    def _write_atomic(path: Path, payload: dict) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)

    def _save_signatures(self) -> None:
        """Rewrite the (large) signature file — only when signatures arrive."""
        if self._path is None:
            return
        with self._lock:
            payload = {
                "version": 2,
                "signatures": [s.encode() for s in self._signatures],
            }
        self._write_atomic(self._path, payload)

    def _save_state(self) -> None:
        """Rewrite only the small sidecar: server index, cursors, pending."""
        if self._state_path is None:
            return
        with self._lock:
            payload = {
                "version": 1,
                "server_index": self._server_index,
                "cursors": dict(self._cursors),
                "pending_nesting": {
                    k: list(v) for k, v in self._pending_nesting.items()
                },
            }
        self._write_atomic(self._state_path, payload)

    def _load(self) -> None:
        try:
            with open(self._path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            raise HistoryError(f"cannot read repository {self._path}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("version") != 2:
            raise HistoryError(
                f"unsupported repository format in {self._path} "
                "(want the version-2 split layout)"
            )
        for encoded in payload.get("signatures", []):
            sig = DeadlockSignature.decode(encoded, origin=ORIGIN_REMOTE)
            if sig.sig_id not in self._ids:
                self._signatures.append(sig)
                self._ids.add(sig.sig_id)
        self._restore_state(self._read_state_file() or {})

    def _read_state_file(self) -> dict | None:
        if self._state_path is None or not self._state_path.exists():
            return None
        try:
            with open(self._state_path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError) as exc:
            raise HistoryError(
                f"cannot read repository state {self._state_path}: {exc}"
            ) from exc

    def _restore_state(self, state: dict) -> None:
        self._server_index = int(state.get("server_index", len(self._signatures)))
        self._cursors = {k: int(v) for k, v in state.get("cursors", {}).items()}
        self._pending_nesting = {
            k: [int(i) for i in v]
            for k, v in state.get("pending_nesting", {}).items()
        }
