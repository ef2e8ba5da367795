"""Deterministic work budgets: what storing a downloaded page writes.

Four pages of ``PAGE`` signatures go into a file-backed
:class:`LocalRepository` already holding 256 or 2,048 signatures.  The
bytes written to the signature files and the ``os.fsync`` calls are the
same at both sizes: a page costs O(page), not O(repository).  Four pages
of 256 fill one log segment (1,024 records), so each window crosses
exactly one segment rotation.  The ``state.json`` sidecar, replaced once
per page, is counted apart: it grows only with the digits of the server
index.  A cursor bump replaces the sidecar and writes no signature bytes.
"""

import os
import random

import pytest

from repro.core.repository import LocalRepository
from repro.loadgen.signatures import random_signature
from repro.store.records import record_size

SIZES = (256, 2048)
PAGE = 256
PAGES = 4
#: Per page: the log commit, then the sidecar file and its directory;
#: once per window: the sealed segment and the directory at rotation.
FSYNCS = PAGES * 3 + 2


@pytest.fixture(scope="module")
def signatures():
    rng = random.Random(20110627)
    return [random_signature(rng) for _ in range(max(SIZES) + PAGE * PAGES)]


def snapshot(root):
    return {path: (path.stat().st_ino, path.stat().st_size)
            for path in root.rglob("*") if path.is_file()}


def written(before, after):
    """``(signature bytes, sidecar bytes)`` between two snapshots: a file
    created or replaced counts whole, a file appended to counts its
    growth."""
    store = sidecar = 0
    for path, (inode, size) in after.items():
        old_inode, old_size = before.get(path, (None, 0))
        grown = size - old_size if inode == old_inode else size
        if "state" in path.name:
            sidecar += grown
        else:
            store += grown
    return store, sidecar


@pytest.mark.parametrize("size", SIZES)
def test_page_cost_does_not_depend_on_repository_size(tmp_path, monkeypatch,
                                                      signatures, size):
    repo = LocalRepository(path=tmp_path / "repo")
    for start in range(0, size, PAGE):
        repo.append_from_server(signatures[start:start + PAGE])
    window = signatures[max(SIZES):]
    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (fsyncs.append(fd), real_fsync(fd)))

    store = 0
    for start in range(0, len(window), PAGE):
        before = snapshot(tmp_path)
        assert repo.append_from_server(window[start:start + PAGE]) == PAGE
        page_store, page_sidecar = written(before, snapshot(tmp_path))
        store += page_store
        assert 0 < page_sidecar < 128
    assert store == sum(record_size(sig.to_bytes()) for sig in window)
    assert len(fsyncs) == FSYNCS

    before = snapshot(tmp_path)
    repo.advance_cursor("app", 3)
    assert written(before, snapshot(tmp_path))[0] == 0
    assert len(fsyncs) == FSYNCS + 2
    repo.close()
