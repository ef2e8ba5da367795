"""The Communix client: periodic incremental signature downloads (§III-B).

The client runs as a background process, decoupled from the agent, and
updates the machine's local signature repository from the Communix server
once a day ("a high frequency would overload the Communix server"); updates
are incremental — only signatures the repository does not yet have are
requested.

:class:`SocketEndpoint` talks to a real :class:`ServerTransport` over TCP
or a UNIX-domain socket; :class:`InProcessEndpoint` invokes a server's
request-processing routines directly (the Fig. 2 configuration, also
convenient in tests).
"""

from repro.client.client import CommunixClient
from repro.client.endpoints import (
    InProcessEndpoint,
    ServerEndpoint,
    SocketEndpoint,
)

__all__ = [
    "CommunixClient",
    "InProcessEndpoint",
    "ServerEndpoint",
    "SocketEndpoint",
]
