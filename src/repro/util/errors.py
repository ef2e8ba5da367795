"""Exception hierarchy for the Communix reproduction.

All library exceptions derive from :class:`CommunixError` so that callers can
catch framework failures with a single ``except`` clause while still being
able to distinguish the subsystem that raised them.
"""

from __future__ import annotations


class CommunixError(Exception):
    """Base class for every error raised by this library."""


class ValidationError(CommunixError):
    """A signature failed server- or client-side validation."""


class RateLimitExceeded(ValidationError):
    """A user exceeded the server's per-day signature quota (§III-C1)."""


class CryptoError(CommunixError):
    """AES / user-ID token failure (bad key size, corrupt token, padding)."""


class ProtocolError(CommunixError):
    """Malformed or truncated message on the client/server wire protocol."""


class HistoryError(CommunixError):
    """The persistent deadlock history could not be read or written."""


class DeadlockError(CommunixError):
    """Raised in a victim thread when Dimmunix breaks a detected deadlock.

    The real Dimmunix leaves the JVM deadlocked after capturing the
    signature; this reproduction designates one victim per deadlock so that
    programs, tests and examples can terminate.  The captured signature is
    available on the exception (``None`` for a self-deadlock).
    """

    def __init__(self, message: str, signature=None):
        super().__init__(message)
        self.signature = signature
