"""Communix: a collaborative deadlock immunity framework.

A from-scratch Python reproduction of *Communix: A Framework for
Collaborative Deadlock Immunity* (Jula, Tozun, Candea - DSN 2011), including
the Dimmunix deadlock-immunity runtime it builds on.

The package exports nothing itself, so that importing one half (say the
server, ``python -m repro.server``) does not load the other; import from
the subpackages.  Quick tour (see ``examples/quickstart.py`` for a
runnable version)::

    from repro.dimmunix import DimmunixRuntime, DimmunixLock

    runtime = DimmunixRuntime()
    a, b = DimmunixLock(runtime, "A"), DimmunixLock(runtime, "B")
    # ... run deadlock-prone code; the first deadlock is detected, its
    # signature saved, and later runs are steered away from it.

Collaborative immunity adds a server and per-machine nodes::

    from repro.client import InProcessEndpoint
    from repro.core.node import CommunixNode
    from repro.server import CommunixServer

    server = CommunixServer()
    node = CommunixNode("alice", app, InProcessEndpoint(server))
    node.start()
    node.sync_now()              # download other users' signatures
    node.start_application()     # agent validates + generalizes them
"""

__version__ = "1.0.0"
