"""Communix: a collaborative deadlock immunity framework.

A from-scratch Python reproduction of *Communix: A Framework for
Collaborative Deadlock Immunity* (Jula, Tozun, Candea - DSN 2011), including
the Dimmunix deadlock-immunity runtime it builds on.

Quick tour (see ``examples/quickstart.py`` for a runnable version)::

    from repro import DimmunixRuntime, DimmunixLock

    runtime = DimmunixRuntime()
    a, b = DimmunixLock(runtime, "A"), DimmunixLock(runtime, "B")
    # ... run deadlock-prone code; the first deadlock is detected, its
    # signature saved, and later runs are steered away from it.

Collaborative immunity adds a server and per-machine nodes::

    from repro import CommunixServer, InProcessEndpoint, CommunixNode

    server = CommunixServer()
    node = CommunixNode("alice", app, InProcessEndpoint(server))
    node.start()
    node.sync_now()              # download other users' signatures
    node.start_application()     # agent validates + generalizes them
"""

from repro.client import CommunixClient, InProcessEndpoint, SocketEndpoint
from repro.core import (
    CallStack,
    ClientSideValidator,
    CommunixAgent,
    CommunixPlugin,
    DeadlockHistory,
    DeadlockSignature,
    Frame,
    Generalizer,
    LocalRepository,
    PythonAppAdapter,
    ThreadSignature,
    merge_signatures,
)
from repro.core.node import CommunixNode
from repro.crypto import AES128, UserIdAuthority
from repro.dimmunix import (
    DimmunixConfig,
    DimmunixLock,
    DimmunixRLock,
    DimmunixRuntime,
    get_runtime,
    patch_threading,
    set_runtime,
)
from repro.server import CommunixServer, ServerConfig, ServerTransport
from repro.util.errors import (
    CommunixError,
    CryptoError,
    DeadlockError,
    ProtocolError,
    RateLimitExceeded,
    ValidationError,
)

__version__ = "1.0.0"

__all__ = [
    "CommunixClient",
    "InProcessEndpoint",
    "SocketEndpoint",
    "CallStack",
    "ClientSideValidator",
    "CommunixAgent",
    "CommunixPlugin",
    "DeadlockHistory",
    "DeadlockSignature",
    "Frame",
    "Generalizer",
    "LocalRepository",
    "PythonAppAdapter",
    "ThreadSignature",
    "merge_signatures",
    "CommunixNode",
    "AES128",
    "UserIdAuthority",
    "DimmunixConfig",
    "DimmunixLock",
    "DimmunixRLock",
    "DimmunixRuntime",
    "get_runtime",
    "patch_threading",
    "set_runtime",
    "CommunixServer",
    "ServerConfig",
    "ServerTransport",
    "CommunixError",
    "CryptoError",
    "DeadlockError",
    "ProtocolError",
    "RateLimitExceeded",
    "ValidationError",
    "__version__",
]
