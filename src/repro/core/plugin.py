"""The Communix plugin (paper §III-A/B).

The plugin runs on top of Dimmunix: whenever Dimmunix produces a new *local*
deadlock signature, the plugin (1) attaches to every call-stack frame the
hash of the class bytecode containing that frame — this is what makes
Communix application-agnostic, no names or versions are ever shared — and
(2) sends the annotated signature to the Communix server, right away.

Uploads go through a small background worker so that the thread that
detected the deadlock (which fires the history listener) never blocks on
the network; failed uploads are retried on the next flush.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Protocol

from repro.core.history import DeadlockHistory
from repro.core.signature import (
    CallStack,
    DeadlockSignature,
    Frame,
    ORIGIN_LOCAL,
    ThreadSignature,
)
from repro.util.logging import get_logger

log = get_logger("core.plugin")


class HashSource(Protocol):
    """Where the plugin gets bytecode hashes (the running application)."""

    def frame_hash(self, frame) -> str | None: ...


#: An uploader takes (signature, user token) and returns True on success.
Uploader = Callable[[DeadlockSignature, str], bool]


def attach_hashes(signature: DeadlockSignature, app: HashSource) -> DeadlockSignature:
    """Fill in each frame's ``code_hash`` from the application.

    Frames whose hash is already set (e.g. live-Python captures embed
    code-object hashes at capture time) are kept; frames of classes the
    application does not know stay unhashed and will simply fail remote
    validation, which is the safe direction.
    """

    def annotate(stack: CallStack) -> CallStack:
        frames = []
        for frame in stack:
            if frame.code_hash:
                frames.append(frame)
                continue
            digest = app.frame_hash(frame)
            frames.append(frame.with_hash(digest) if digest else frame)
        return CallStack(frames)

    threads = tuple(
        ThreadSignature(outer=annotate(t.outer), inner=annotate(t.inner))
        for t in signature.threads
    )
    return DeadlockSignature(threads=threads, origin=signature.origin)


class CommunixPlugin:
    """Watches a deadlock history and uploads new local signatures."""

    def __init__(self, history: DeadlockHistory, app: HashSource,
                 uploader: Uploader, user_token: str,
                 background: bool = True):
        self._app = app
        self._uploader = uploader
        self._token = user_token
        self._queue: queue.Queue = queue.Queue()
        self._failed: list[DeadlockSignature] = []
        self.uploaded: list[str] = []  # sig_ids successfully sent
        self._background = background
        self._worker: threading.Thread | None = None
        self._stop = threading.Event()
        self._unsubscribe: Callable[[], None] | None = None
        history.add_listener(self._on_signature_added)
        if background:
            self._worker = threading.Thread(
                target=self._drain_loop, name="communix-plugin", daemon=True
            )
            self._worker.start()

    def set_app(self, app: HashSource) -> None:
        """Rebind the hash source (late-attached applications)."""
        self._app = app

    # ------------------------------------------------------------ listener
    def _on_signature_added(self, signature: DeadlockSignature) -> None:
        if signature.origin != ORIGIN_LOCAL:
            return  # only share what this node discovered itself
        if self._app is not None:
            annotated = attach_hashes(signature, self._app)
        else:
            # No hash source attached (frames captured live already embed
            # code-object hashes); share the signature as-is.
            annotated = signature
        if self._background:
            self._queue.put(annotated)
        else:
            self._send(annotated)

    # -------------------------------------------------------------- worker
    def _drain_loop(self) -> None:
        while not self._stop.is_set():
            try:
                signature = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            try:
                self._send(signature)
            finally:
                self._queue.task_done()

    def _send(self, signature: DeadlockSignature) -> None:
        try:
            ok = self._uploader(signature, self._token)
        except Exception as exc:
            log.warning("signature upload failed: %s", exc)
            ok = False
        if ok:
            self.uploaded.append(signature.sig_id)
        else:
            self._failed.append(signature)

    # -------------------------------------------------------------- public
    def flush(self, timeout: float = 5.0) -> bool:
        """Wait for queued *and in-flight* uploads, then retry failures once."""
        import time

        deadline = time.monotonic() + timeout
        while self._queue.unfinished_tasks and time.monotonic() < deadline:
            time.sleep(0.01)
        retry, self._failed = self._failed, []
        for signature in retry:
            self._send(signature)
        return not self._queue.unfinished_tasks and not self._failed

    @property
    def failed_uploads(self) -> list[DeadlockSignature]:
        return list(self._failed)

    def close(self) -> None:
        self._stop.set()
        if self._worker is not None:
            self._worker.join(timeout=2.0)
