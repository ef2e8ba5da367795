"""A Communix node: everything one machine runs, wired together.

:class:`CommunixNode` assembles the five per-machine pieces of Figure 1 —
Dimmunix (runtime), the Communix plugin, the Communix client, the local
repository, and the Communix agent — around one application and one server
endpoint.  Examples and integration tests use it to stand up whole
mini-deployments (several nodes sharing one server) in a few lines.
"""

from __future__ import annotations

from pathlib import Path

from repro.client.client import CommunixClient, DEFAULT_PERIOD, DownloadReport
from repro.client.endpoints import ServerEndpoint
from repro.core.agent import AgentReport, CommunixAgent
from repro.core.history import DeadlockHistory
from repro.core.plugin import CommunixPlugin
from repro.core.repository import LocalRepository
from repro.core.signature import DeadlockSignature
from repro.core.validation import ClientSideValidator
from repro.dimmunix.config import DimmunixConfig
from repro.dimmunix.lock import DimmunixLock, DimmunixRLock
from repro.dimmunix.runtime import DimmunixRuntime
from repro.util.clock import Clock, SystemClock


class CommunixNode:
    """One machine in a Communix deployment.

    ``app`` is the running application as seen by validation: anything with
    ``name``, ``generation``, ``frame_hash(frame)`` and
    ``nested_sync_sites()`` — an :class:`repro.appmodel.Application` or a
    :class:`repro.core.pyapp.PythonAppAdapter`.
    """

    def __init__(self, name: str, app, endpoint: ServerEndpoint,
                 data_dir: str | Path | None = None,
                 dimmunix_config: DimmunixConfig | None = None,
                 clock: Clock | None = None,
                 client_period: float = DEFAULT_PERIOD,
                 min_outer_depth: int = 5,
                 require_nesting: bool = True):
        self.name = name
        self.app = app
        self.endpoint = endpoint
        self.clock = clock or SystemClock()
        self._min_outer_depth = min_outer_depth
        self._require_nesting = require_nesting
        data_path = Path(data_dir) if data_dir is not None else None

        history_path = data_path / "history.json" if data_path else None
        repo_path = data_path / "repository" if data_path else None

        self.history = DeadlockHistory(path=history_path)
        self.runtime = DimmunixRuntime(
            history=self.history,
            config=dimmunix_config or DimmunixConfig(),
            clock=self.clock,
        )
        self.user_token = endpoint.issue_token()
        self.plugin = CommunixPlugin(
            history=self.history,
            app=app,
            uploader=self._upload,
            user_token=self.user_token,
        )
        self.repository = LocalRepository(path=repo_path)
        self.client = CommunixClient(
            endpoint=endpoint,
            repository=self.repository,
            clock=self.clock,
            period=client_period,
        )
        self.agent = CommunixAgent(
            app=app,
            history=self.history,
            repository=self.repository,
            validator=ClientSideValidator(
                app, min_outer_depth=min_outer_depth,
                require_nesting=require_nesting,
            ),
        )

    # -------------------------------------------------------------- wiring
    def _upload(self, signature: DeadlockSignature, token: str) -> bool:
        return self.endpoint.add(signature.to_bytes(), token)

    def attach_app(self, app) -> None:
        """Bind (or replace) the application this node runs.

        Needed when the application view depends on the node's runtime —
        e.g. :class:`repro.core.pyapp.PythonAppAdapter` consumes the
        runtime's dynamically discovered nested sites::

            node = CommunixNode("alice", None, endpoint)
            node.attach_app(PythonAppAdapter("app", [mod], node.runtime))
        """
        self.app = app
        self.plugin.set_app(app)
        self.agent.set_app(
            app,
            ClientSideValidator(
                app,
                min_outer_depth=self._min_outer_depth,
                require_nesting=self._require_nesting,
            ),
        )

    # -------------------------------------------------------------- public
    def lock(self, name: str | None = None) -> DimmunixLock:
        """A new immunized mutex bound to this node's runtime."""
        return DimmunixLock(self.runtime, name)

    def rlock(self, name: str | None = None) -> DimmunixRLock:
        return DimmunixRLock(self.runtime, name)

    def start(self, background_client: bool = False) -> None:
        """Optionally start the daily download daemon.

        The runtime needs no starting: it detects deadlocks inside the lock
        operations themselves.
        """
        if background_client:
            self.client.start()

    def sync_now(self) -> DownloadReport:
        """Force one incremental download (instead of waiting a day)."""
        return self.client.poll_once()

    def start_application(self) -> AgentReport:
        """Simulate an application start: the agent inspects new signatures."""
        if hasattr(self.app, "start"):
            self.app.start()
        return self.agent.on_application_start()

    def close(self) -> None:
        self.client.stop()
        self.plugin.close()
        self.repository.close()

    def __enter__(self) -> "CommunixNode":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
