"""Pluggable AES backends: pure-Python reference vs. native fast path.

The from-scratch FIPS-197 implementation in :mod:`repro.crypto.aes` is the
*reference*: always importable, pinned by the NIST test vectors, and slow
(~0.2 ms per token decode — milliseconds of interpreter time under a cold
validation burst, which is exactly the Fig. 2 throughput wall).  When the
``cryptography`` package is importable, the ``fast`` backend runs the same
AES-CBC/ECB through OpenSSL instead, at a 100x+ speedup
(``bench/``'s ``crypto.token_decode_us`` is its cost); padding, token framing,
and MAC handling stay in shared Python code so both backends are
byte-identical — a property test in ``tests/crypto/test_backends.py``
pins that over random keys and payloads.

Selection order (first match wins):

1. an explicit backend object or name handed to the caller
   (``ServerConfig.crypto_backend`` / ``--crypto-backend``);
2. the ``REPRO_CRYPTO_BACKEND`` environment variable;
3. ``fast`` when ``cryptography`` is importable, else ``pure``.

Asking for a backend that is not available (or not registered) raises
:class:`~repro.util.errors.CryptoError` — an operator who pinned a backend
wants a startup failure, not a silent fallback.  ``auto`` (or an empty
string) is the explicit spelling of the default order.
"""

from __future__ import annotations

import os
import threading

from repro.crypto import aes as _aes
from repro.crypto import modes as _modes
from repro.util.errors import CryptoError

#: Environment override for the default backend selection.
BACKEND_ENV = "REPRO_CRYPTO_BACKEND"

BLOCK_SIZE = _aes.BLOCK_SIZE


class CryptoBackend:
    """One AES implementation.  Subclasses provide raw block-aligned
    ECB/CBC over ``(key, data)``; padding and argument validation live
    here so every backend shares one error surface."""

    #: Registry key (also the ``--crypto-backend`` spelling).
    name: str = "?"

    def __init__(self) -> None:
        # Key schedules are worth caching across calls: the server uses
        # one long-lived key, so the hot path must not re-expand it per
        # token.  Bounded so a key-per-call abuser cannot grow it.
        self._ciphers: dict[bytes, object] = {}
        self._cipher_lock = threading.Lock()

    # ------------------------------------------------------------ interface
    @property
    def available(self) -> bool:
        """Whether this backend can run in the current environment."""
        return True

    def _make_cipher(self, key: bytes):  # pragma: no cover - abstract
        raise NotImplementedError

    def _ecb(self, cipher, data: bytes, encrypt: bool) -> bytes:
        raise NotImplementedError  # pragma: no cover - abstract

    def _cbc(self, cipher, iv: bytes, data: bytes,
             encrypt: bool) -> bytes:
        raise NotImplementedError  # pragma: no cover - abstract

    # ------------------------------------------------------------- helpers
    def _cipher(self, key: bytes):
        cipher = self._ciphers.get(key)
        if cipher is None:
            cipher = self._make_cipher(key)
            with self._cipher_lock:
                if len(self._ciphers) >= 64:
                    self._ciphers.clear()
                self._ciphers[key] = cipher
        return cipher

    @staticmethod
    def _check_iv(iv: bytes) -> None:
        if len(iv) != BLOCK_SIZE:
            raise CryptoError("IV must be one block")

    # ------------------------------------------------------------- AES-ECB
    def ecb_encrypt(self, key: bytes, plaintext: bytes,
                    pad: bool = True) -> bytes:
        if pad:
            plaintext = _modes.pkcs7_pad(plaintext)
        if len(plaintext) % BLOCK_SIZE != 0:
            raise CryptoError("ECB input must be block-aligned when pad=False")
        return self._ecb(self._cipher(key), plaintext, encrypt=True)

    def ecb_decrypt(self, key: bytes, ciphertext: bytes,
                    pad: bool = True) -> bytes:
        if len(ciphertext) % BLOCK_SIZE != 0:
            raise CryptoError("ECB ciphertext must be block-aligned")
        plaintext = self._ecb(self._cipher(key), ciphertext, encrypt=False)
        return _modes.pkcs7_unpad(plaintext) if pad else plaintext

    # ------------------------------------------------------------- AES-CBC
    def cbc_encrypt(self, key: bytes, iv: bytes, plaintext: bytes,
                    pad: bool = True) -> bytes:
        self._check_iv(iv)
        if pad:
            plaintext = _modes.pkcs7_pad(plaintext)
        if len(plaintext) % BLOCK_SIZE != 0:
            raise CryptoError("CBC input must be block-aligned when pad=False")
        return self._cbc(self._cipher(key), iv, plaintext, encrypt=True)

    def cbc_decrypt(self, key: bytes, iv: bytes, ciphertext: bytes,
                    pad: bool = True) -> bytes:
        self._check_iv(iv)
        if len(ciphertext) % BLOCK_SIZE != 0:
            raise CryptoError("CBC ciphertext must be block-aligned")
        plaintext = self._cbc(self._cipher(key), iv, ciphertext,
                              encrypt=False)
        return _modes.pkcs7_unpad(plaintext) if pad else plaintext


class PurePythonBackend(CryptoBackend):
    """The FIPS-197 reference implementation — always available."""

    name = "pure"

    def _make_cipher(self, key: bytes):
        return _aes.AES128(key)

    def _ecb(self, cipher, data: bytes, encrypt: bool) -> bytes:
        if encrypt:
            return _modes.ecb_encrypt(cipher, data, pad=False)
        return _modes.ecb_decrypt(cipher, data, pad=False)

    def _cbc(self, cipher, iv: bytes, data: bytes, encrypt: bool) -> bytes:
        if encrypt:
            return _modes.cbc_encrypt(cipher, data, iv, pad=False)
        return _modes.cbc_decrypt(cipher, data, iv, pad=False)


class FastBackend(CryptoBackend):
    """OpenSSL AES via the ``cryptography`` package, when importable.

    Constructing a fresh ``Cipher`` + context per call costs ~12 us of
    Python/FFI overhead — more than the AES itself for a 32-byte token.
    ECB has no chaining state, so this backend keeps one *streaming* ECB
    context per ``(thread, key, direction)`` alive forever (``update()``
    on block-aligned input returns immediately and is ~0.4 us) and builds
    CBC from it in Python: ``P_i = D(C_i) xor C_{i-1}`` needs only a
    single batched ECB decrypt plus one XOR over the whole message, and
    encryption chains block-per-block through the same persistent
    context.  Contexts are thread-local because OpenSSL ``update`` is not
    safe under concurrent calls (the server decodes tokens from several
    worker threads at once).
    """

    name = "fast"

    def __init__(self) -> None:
        super().__init__()
        try:
            from cryptography.hazmat.primitives.ciphers import (
                Cipher, algorithms, modes as cr_modes,
            )
        except ImportError:  # pragma: no cover - environment-dependent
            self._cipher_cls = None
        else:
            self._cipher_cls = Cipher
            self._algorithms = algorithms
            self._modes = cr_modes
        self._local = threading.local()

    @property
    def available(self) -> bool:
        return self._cipher_cls is not None

    def _make_cipher(self, key: bytes):
        if len(key) != BLOCK_SIZE:
            raise CryptoError(f"AES-128 requires a 16-byte key, got {len(key)}")
        if not self.available:  # pragma: no cover - guarded by get_backend
            raise CryptoError("fast crypto backend is not available "
                              "(cryptography not importable)")
        return self._algorithms.AES(key)

    def _ecb_ctx(self, algorithm, encrypt: bool):
        """This thread's persistent streaming ECB context for ``key``."""
        ctxs = getattr(self._local, "ctxs", None)
        if ctxs is None:
            ctxs = self._local.ctxs = {}
        # Keyed by the key bytes, not the algorithm object: an evicted
        # algorithm's id() could be reused by a different key's object.
        slot = (algorithm.key, encrypt)
        ctx = ctxs.get(slot)
        if ctx is None:
            cipher = self._cipher_cls(algorithm, self._modes.ECB())
            ctx = cipher.encryptor() if encrypt else cipher.decryptor()
            if len(ctxs) >= 128:  # key-per-call abuse must not pin contexts
                ctxs.clear()
            ctxs[slot] = ctx
        return ctx

    def _ecb(self, algorithm, data: bytes, encrypt: bool) -> bytes:
        # Block-aligned input (validated by the base class) passes through
        # a streaming context in one update; nothing is ever buffered, so
        # the context stays clean for the next call.
        return self._ecb_ctx(algorithm, encrypt).update(data)

    def _cbc(self, algorithm, iv: bytes, data: bytes, encrypt: bool) -> bytes:
        if not encrypt:
            # One batched ECB decrypt, then un-chain with a single XOR:
            # each plaintext block is D(C_i) xor C_{i-1} (C_0 = IV).
            raw = self._ecb_ctx(algorithm, False).update(data)
            prior = iv + data[:-BLOCK_SIZE]
            n = len(raw)
            return (
                int.from_bytes(raw, "big") ^ int.from_bytes(prior, "big")
            ).to_bytes(n, "big")
        ctx = self._ecb_ctx(algorithm, True)
        out = bytearray()
        prev = int.from_bytes(iv, "big")
        for i in range(0, len(data), BLOCK_SIZE):
            block = int.from_bytes(data[i:i + BLOCK_SIZE], "big") ^ prev
            cipherblock = ctx.update(block.to_bytes(BLOCK_SIZE, "big"))
            out += cipherblock
            prev = int.from_bytes(cipherblock, "big")
        return bytes(out)


# ---------------------------------------------------------------- registry
_REGISTRY: dict[str, CryptoBackend] = {}
_REGISTRY_LOCK = threading.Lock()


def register_backend(backend: CryptoBackend) -> CryptoBackend:
    """Add (or replace) a backend under its ``name``; returns it."""
    with _REGISTRY_LOCK:
        _REGISTRY[backend.name] = backend
    return backend


register_backend(PurePythonBackend())
register_backend(FastBackend())


def available_backends() -> list[str]:
    """Names of the registered backends usable right now (``pure`` always;
    ``fast`` only when ``cryptography`` imports)."""
    return [name for name, backend in sorted(_REGISTRY.items())
            if backend.available]


def default_backend_name() -> str:
    """What ``auto`` resolves to in this environment."""
    fast = _REGISTRY.get("fast")
    return "fast" if fast is not None and fast.available else "pure"


def get_backend(selector: str | CryptoBackend | None = None) -> CryptoBackend:
    """Resolve a backend: explicit selector > ``REPRO_CRYPTO_BACKEND`` >
    fast-when-available > pure.  Raises :class:`CryptoError` for an
    unknown or unavailable explicit choice."""
    if isinstance(selector, CryptoBackend):
        return selector
    name = selector or os.environ.get(BACKEND_ENV) or "auto"
    name = name.strip().lower()
    if name in ("", "auto"):
        name = default_backend_name()
    backend = _REGISTRY.get(name)
    if backend is None:
        raise CryptoError(
            f"unknown crypto backend {name!r} "
            f"(registered: {', '.join(sorted(_REGISTRY))})"
        )
    if not backend.available:
        raise CryptoError(
            f"crypto backend {name!r} is not available in this environment"
        )
    return backend
