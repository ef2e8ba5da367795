"""The Communix client daemon (paper §III-B).

"The Communix client, running on an arbitrary machine in the Internet,
periodically downloads the new deadlock signatures from the server into a
local repository.  The local repository is updated once a day [...].  The
updates are incremental, i.e., the client requests from the server only the
signatures that are not present in the local repository."

The daemon thread polls a :class:`Clock`, so tests drive it with a
:class:`ManualClock` (advance a day, observe one download) while production
uses the system clock with ``period=86400``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.client.endpoints import ServerEndpoint
from repro.core.repository import LocalRepository
from repro.core.signature import DeadlockSignature, ORIGIN_REMOTE
from repro.util.clock import Clock, SystemClock
from repro.util.errors import CommunixError, ValidationError
from repro.util.logging import get_logger

log = get_logger("client")

DEFAULT_PERIOD = 86_400.0  # once a day


#: Signatures requested per page; the server may clamp this further.  At
#: ~1.7 KB per signature (paper §IV-A) a page is a few MB — bounded frames
#: instead of one response holding the whole database.
DEFAULT_PAGE_SIZE = 2048


@dataclass
class DownloadReport:
    requested_from: int
    received: int = 0
    stored: int = 0
    malformed: int = 0
    pages: int = 0
    failed: bool = False
    error: str = ""


@dataclass
class CommunixClient:
    endpoint: ServerEndpoint
    repository: LocalRepository
    clock: Clock = field(default_factory=SystemClock)
    period: float = DEFAULT_PERIOD
    page_size: int = DEFAULT_PAGE_SIZE

    def __post_init__(self):
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._next_due = self.clock.now()  # first poll runs immediately
        self.reports: list[DownloadReport] = []

    # ------------------------------------------------------------- polling
    def poll_once(self) -> DownloadReport:
        """One incremental download: ``GET(n+1)`` in the paper's terms.

        The download streams page by page until the server reports no
        more; each page is stored before the next is requested, so an
        interrupted download resumes from the page boundary rather than
        from scratch.
        """
        start = self.repository.server_index
        report = DownloadReport(requested_from=start)
        cursor = start
        while True:
            try:
                next_index, blobs, more = self.endpoint.get_page(
                    cursor, self.page_size
                )
            except CommunixError as exc:
                report.failed = True
                report.error = str(exc)
                log.warning("download failed: %s", exc)
                self.reports.append(report)
                return report
            report.pages += 1
            report.received += len(blobs)
            signatures: list[DeadlockSignature] = []
            for blob in blobs:
                try:
                    signatures.append(
                        DeadlockSignature.from_bytes(blob, origin=ORIGIN_REMOTE)
                    )
                except ValidationError:
                    # A hostile or buggy server cannot corrupt the repository.
                    report.malformed += 1
            report.stored += self.repository.append_from_server(
                signatures, next_server_index=next_index
            )
            if not more or next_index <= cursor:  # no forward progress
                break
            cursor = next_index
        self.reports.append(report)
        log.info(
            "downloaded %d signatures (stored %d, malformed %d) "
            "in %d page(s) from index %d",
            report.received, report.stored, report.malformed,
            report.pages, start,
        )
        return report

    # ---------------------------------------------------------- background
    def start(self) -> None:
        """Run the daily poll in a daemon thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="communix-client", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def _loop(self) -> None:
        # Check the (possibly manual) clock at a short real cadence; fire
        # when its time passes the next due date.
        while not self._stop.wait(0.02):
            now = self.clock.now()
            if now >= self._next_due:
                try:
                    self.poll_once()
                finally:
                    self._next_due = now + self.period
