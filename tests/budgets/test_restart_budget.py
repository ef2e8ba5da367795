"""Deterministic work budgets: what a restart re-verifies.

The checkpoint manifest exists so that a restart does not re-parse or
re-checksum the history it already vouched for.  ``from_bytes`` and the
``zlib.crc32`` the record scanner calls are wrapped with counters, and a
data dir is reopened through :class:`CommunixServer`:

* a cleanly closed dir costs no parse and no checksum;
* after a checkpoint plus ``K`` appends and a crash-style close (no final
  checkpoint), exactly the ``K`` records past the checkpoint are parsed,
  and only the records of the one segment the checkpoint does not fully
  cover are checksummed;
* both counts are the same at 2,048 and 8,192 records (each test runs
  at both sizes against the same expected numbers).
"""

import random
import shutil
from types import SimpleNamespace

import pytest

import repro.store.records as records_module
from repro.core.signature import DeadlockSignature
from repro.loadgen.signatures import random_signature
from repro.server.server import CommunixServer, ServerConfig
from repro.store import DEFAULT_SEGMENT_RECORDS, SignatureStore

SIZES = (2048, 8192)
#: Records checkpointed past the last full segment: the checkpoint covers
#: part of the tail segment, not all of it.
TAIL = 300
#: Appends after the checkpoint, lost from the manifest by the crash.
K = 7


@pytest.fixture(scope="module")
def signatures():
    rng = random.Random(20110627)
    return [random_signature(rng) for _ in range(max(SIZES) + TAIL + K)]


def _append(store, signatures, lo, hi):
    for i in range(lo, hi):
        sig = signatures[i]
        store.append(sig.to_bytes(), sig.sig_id, i % 5 + 1, sig.top_frames)


@pytest.fixture(scope="module")
def data_dirs(tmp_path_factory, signatures):
    """``{size: (clean_dir, crashed_dir)}``, built once."""
    dirs = {}
    for size in SIZES:
        clean = tmp_path_factory.mktemp(f"clean{size}")
        store = SignatureStore(str(clean), fsync="never")
        _append(store, signatures, 0, size)
        store.close()  # final full checkpoint
        crashed = tmp_path_factory.mktemp(f"crashed{size}")
        shutil.copytree(clean, crashed, dirs_exist_ok=True)
        store = SignatureStore(str(crashed), fsync="never")
        _append(store, signatures, size, size + TAIL)
        store.checkpoint()
        _append(store, signatures, size + TAIL, size + TAIL + K)
        store.close(final_checkpoint=False)
        dirs[size] = (clean, crashed)
    return dirs


@pytest.fixture
def counts(monkeypatch):
    """``{"parses": n, "crcs": n}``, counting from the moment it is made."""
    seen = {"parses": 0, "crcs": 0}
    from_bytes = DeadlockSignature.from_bytes
    crc32 = records_module.zlib.crc32

    def counting_parse(data, *args, **kwargs):
        seen["parses"] += 1
        return from_bytes(data, *args, **kwargs)

    def counting_crc(data, *args):
        seen["crcs"] += 1
        return crc32(data, *args)

    monkeypatch.setattr(DeadlockSignature, "from_bytes",
                        staticmethod(counting_parse))
    monkeypatch.setattr(records_module, "zlib",
                        SimpleNamespace(crc32=counting_crc))
    return seen


def _restart(source, tmp_path, counts) -> tuple[int, int, int]:
    """Reopen a copy of ``source``; ``(records, parses, crcs)``."""
    data_dir = tmp_path / "data"
    shutil.copytree(source, data_dir)
    counts["parses"] = counts["crcs"] = 0
    server = CommunixServer(ServerConfig(data_dir=str(data_dir)))
    try:
        return len(server.database), counts["parses"], counts["crcs"]
    finally:
        server.close()


@pytest.mark.parametrize("size", SIZES)
def test_clean_restart_parses_and_checksums_nothing(
        size, data_dirs, tmp_path, counts):
    clean, _ = data_dirs[size]
    assert _restart(clean, tmp_path, counts) == (size, 0, 0)


@pytest.mark.parametrize("size", SIZES)
def test_crashed_restart_verifies_only_past_the_checkpoint(
        size, data_dirs, tmp_path, counts):
    _, crashed = data_dirs[size]
    # The tail segment holds TAIL checkpointed records plus the K lost
    # ones; every full segment before it is trusted as it stands.
    assert TAIL + K < DEFAULT_SEGMENT_RECORDS
    assert _restart(crashed, tmp_path, counts) == (size + TAIL + K, K,
                                                   TAIL + K)

