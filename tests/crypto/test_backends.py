"""Pluggable crypto backends: parity, selection, fallback (ISSUE PR 6).

The fast (OpenSSL) backend is only a legitimate optimization if it is
*byte-identical* to the pure-Python FIPS-197 reference on every input —
the property tests here pin that over random keys, IVs, and payloads, and
the token tests pin it end-to-end (issue on one backend, decode on the
other, including the MAC check).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.backend import (
    BACKEND_ENV,
    BLOCK_SIZE,
    CryptoBackend,
    FastBackend,
    PurePythonBackend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
)
from repro.crypto.modes import (
    cbc_decrypt_keyed,
    cbc_encrypt_keyed,
    ecb_decrypt_keyed,
    ecb_encrypt_keyed,
)
from repro.crypto.userid import UserIdAuthority
from repro.util.errors import CryptoError

pure = get_backend("pure")
fast_available = "fast" in available_backends()
needs_fast = pytest.mark.skipif(
    not fast_available, reason="cryptography package not importable"
)

keys = st.binary(min_size=16, max_size=16)
ivs = st.binary(min_size=16, max_size=16)
payloads = st.binary(min_size=0, max_size=256)


@needs_fast
class TestCrossBackendParity:
    """Both backends must agree byte-for-byte on every operation."""

    @settings(max_examples=60, deadline=None)
    @given(key=keys, iv=ivs, data=payloads)
    def test_cbc_encrypt_identical(self, key, iv, data):
        fast = get_backend("fast")
        assert (fast.cbc_encrypt(key, iv, data)
                == pure.cbc_encrypt(key, iv, data))

    @settings(max_examples=60, deadline=None)
    @given(key=keys, iv=ivs, data=payloads)
    def test_cbc_cross_decrypt(self, key, iv, data):
        fast = get_backend("fast")
        ct = pure.cbc_encrypt(key, iv, data)
        assert fast.cbc_decrypt(key, iv, ct) == data
        ct = fast.cbc_encrypt(key, iv, data)
        assert pure.cbc_decrypt(key, iv, ct) == data

    @settings(max_examples=60, deadline=None)
    @given(key=keys, data=payloads)
    def test_ecb_identical_and_cross(self, key, data):
        fast = get_backend("fast")
        ct_pure = pure.ecb_encrypt(key, data)
        ct_fast = fast.ecb_encrypt(key, data)
        assert ct_pure == ct_fast
        assert fast.ecb_decrypt(key, ct_pure) == data
        assert pure.ecb_decrypt(key, ct_fast) == data

    @settings(max_examples=30, deadline=None)
    @given(key=keys, iv=ivs,
           data=st.binary(min_size=16, max_size=128).filter(
               lambda b: len(b) % 16 == 0))
    def test_unpadded_cbc_identical(self, key, iv, data):
        fast = get_backend("fast")
        assert (fast.cbc_encrypt(key, iv, data, pad=False)
                == pure.cbc_encrypt(key, iv, data, pad=False))

    def test_tokens_cross_decode_with_mac(self):
        # Same deterministic rng -> same uid sequence and IVs, so the
        # tokens (ciphertext *and* embedded MAC) must match exactly, and
        # each backend must accept the other's output.
        a_pure = UserIdAuthority(rng=random.Random(99), backend="pure")
        a_fast = UserIdAuthority(rng=random.Random(99), backend="fast")
        for _ in range(8):
            t_pure = a_pure.issue()
            t_fast = a_fast.issue()
            assert t_pure == t_fast
            assert a_fast.decode(t_pure).user_id == a_pure.decode(t_fast).user_id

    def test_tampered_token_rejected_by_both(self):
        a_pure = UserIdAuthority(rng=random.Random(5), backend="pure")
        a_fast = UserIdAuthority(rng=random.Random(5), backend="fast")
        token = a_pure.issue()
        # Flip one ciphertext nibble; the MAC check must catch it on both.
        bad = token[:-1] + ("0" if token[-1] != "0" else "1")
        for authority in (a_pure, a_fast):
            with pytest.raises(CryptoError):
                authority.decode(bad)


class TestKeyedModeHelpers:
    def test_round_trip_default_backend(self):
        key = bytes(range(16))
        iv = bytes(range(16, 32))
        assert cbc_decrypt_keyed(key, cbc_encrypt_keyed(key, b"hi", iv),
                                 iv) == b"hi"
        assert ecb_decrypt_keyed(key, ecb_encrypt_keyed(key, b"hi")) == b"hi"

    def test_explicit_backend_arg(self):
        key = b"k" * 16
        ct = ecb_encrypt_keyed(key, b"data", backend="pure")
        assert ecb_decrypt_keyed(key, ct, backend="pure") == b"data"


class TestSelection:
    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        # CI's tier-1 job installs cryptography, so the parity and
        # available_backends()-parametrised tests cover pure and fast in
        # one run; a shell may still pin REPRO_CRYPTO_BACKEND, and
        # selection tests need the un-pinned default.
        monkeypatch.delenv(BACKEND_ENV, raising=False)

    def test_pure_always_available(self):
        assert "pure" in available_backends()
        assert get_backend("pure").name == "pure"

    def test_auto_resolves_to_default(self):
        assert get_backend("auto").name == default_backend_name()
        assert get_backend(None).name == default_backend_name()

    def test_backend_object_passes_through(self):
        backend = PurePythonBackend()
        assert get_backend(backend) is backend

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "pure")
        assert get_backend(None).name == "pure"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "pure")
        assert get_backend(default_backend_name()).name == default_backend_name()

    def test_unknown_backend_raises(self):
        with pytest.raises(CryptoError, match="unknown crypto backend"):
            get_backend("turbo")

    def test_bad_env_var_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "turbo")
        with pytest.raises(CryptoError, match="unknown crypto backend"):
            get_backend(None)

    def test_case_and_whitespace_tolerated(self):
        assert get_backend("  PURE ").name == "pure"

    def test_register_custom_backend(self):
        import repro.crypto.backend as backend_module

        class Custom(PurePythonBackend):
            name = "custom-test"

        register_backend(Custom())
        try:
            assert get_backend("custom-test").name == "custom-test"
            assert "custom-test" in available_backends()
        finally:
            del backend_module._REGISTRY["custom-test"]


class TestForcedFallback:
    """Simulate an environment without the cryptography package."""

    @pytest.fixture
    def no_fast(self, monkeypatch):
        import repro.crypto.backend as backend_module

        monkeypatch.delenv(BACKEND_ENV, raising=False)
        broken = FastBackend()
        monkeypatch.setattr(broken, "_cipher_cls", None)
        monkeypatch.setitem(backend_module._REGISTRY, "fast", broken)
        return broken

    def test_default_falls_back_to_pure(self, no_fast):
        assert default_backend_name() == "pure"
        assert get_backend(None).name == "pure"
        assert available_backends() == ["pure"]

    def test_explicit_fast_pin_fails_loudly(self, no_fast):
        with pytest.raises(CryptoError, match="not available"):
            get_backend("fast")

    def test_authority_still_works_on_fallback(self, no_fast):
        authority = UserIdAuthority(rng=random.Random(3))
        assert authority.backend_name == "pure"
        token = authority.issue()
        assert authority.decode(token).user_id == 1


class TestErrorSurface:
    @pytest.mark.parametrize("name", available_backends())
    def test_bad_iv_rejected(self, name):
        backend = get_backend(name)
        with pytest.raises(CryptoError):
            backend.cbc_encrypt(b"k" * 16, b"short-iv", b"data")

    @pytest.mark.parametrize("name", available_backends())
    def test_unaligned_ciphertext_rejected(self, name):
        backend = get_backend(name)
        with pytest.raises(CryptoError):
            backend.cbc_decrypt(b"k" * 16, b"i" * 16, b"x" * 17)

    @pytest.mark.parametrize("name", available_backends())
    def test_unaligned_unpadded_plaintext_rejected(self, name):
        backend = get_backend(name)
        with pytest.raises(CryptoError):
            backend.ecb_encrypt(b"k" * 16, b"x" * 5, pad=False)

    @pytest.mark.parametrize("name", available_backends())
    def test_bad_key_length_rejected(self, name):
        backend = get_backend(name)
        with pytest.raises(CryptoError):
            backend.ecb_encrypt(b"short", b"data")


@needs_fast
class TestFastBackendInternals:
    def test_context_reuse_is_key_safe(self):
        # Two keys alternating through the same thread-local context
        # cache must never cross-contaminate (contexts are keyed by the
        # key bytes, not object identity).
        fast = get_backend("fast")
        k1, k2 = b"a" * 16, b"b" * 16
        for _ in range(4):
            assert fast.ecb_decrypt(k1, fast.ecb_encrypt(k1, b"one")) == b"one"
            assert fast.ecb_decrypt(k2, fast.ecb_encrypt(k2, b"two")) == b"two"

    def test_many_keys_do_not_pin_contexts(self):
        fast = FastBackend()
        for i in range(200):  # crosses both cache-clear thresholds
            key = i.to_bytes(16, "big")
            assert fast.ecb_decrypt(key, fast.ecb_encrypt(key, b"x")) == b"x"

    def test_multiblock_cbc_round_trip(self):
        fast = get_backend("fast")
        key, iv = b"K" * 16, b"I" * 16
        data = bytes(range(256)) * 3  # many blocks exercises the chaining
        assert fast.cbc_decrypt(key, iv, fast.cbc_encrypt(key, iv, data)) == data
