"""Incremental checkpoints: delta lines instead of O(history) rewrites.

Only the first checkpoint of a data dir (and the final one at clean
shutdown) writes ``MANIFEST.json``; periodic checkpoints append one
O(delta) line to ``MANIFEST.delta.jsonl``.  A restart composes the chain
over its base, stopping cleanly at any torn/garbled line — the same
"accelerator, not truth" stance the manifest itself has always had.
"""

import json
import os
import random

import pytest

from repro.loadgen.signatures import random_signature
from repro.store import SignatureStore, load_manifest
from repro.store.checkpoint import manifest_delta_path, manifest_path


@pytest.fixture(scope="module")
def signatures():
    rng = random.Random(20110811)
    return [random_signature(rng) for _ in range(30)]


def _append(store, sig, uid):
    return store.append(sig.to_bytes(), sig.sig_id, uid, sig.top_frames)


def _populate(path, signatures, **kwargs):
    store = SignatureStore(str(path), **kwargs)
    for i, sig in enumerate(signatures):
        assert _append(store, sig, i % 3 + 1) == i
    return store


def _delta_lines(path):
    with open(manifest_delta_path(str(path)), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestDeltaCadence:
    def test_periodic_checkpoints_append_deltas(self, tmp_path, signatures):
        store = _populate(tmp_path, signatures[:11], fsync="always",
                          checkpoint_every=4)
        # Cadence fired at 4 (first checkpoint: full manifest) and at 8
        # (delta).  The on-disk MANIFEST.json must still be the base.
        assert store.checkpoint_count == 8
        assert load_manifest(str(tmp_path)).record_count == 4
        lines = _delta_lines(tmp_path)
        assert len(lines) == 1
        assert lines[0]["base"] == 4
        assert lines[0]["from"] == 4
        assert len(lines[0]["entries"]) == 4
        store.close(final_checkpoint=False)

    def test_explicit_checkpoint_returns_none_for_delta(self, tmp_path,
                                                        signatures):
        store = _populate(tmp_path, signatures[:5], fsync="never")
        assert store.checkpoint() is not None  # first one: full manifest
        _append(store, signatures[5], 1)
        assert store.checkpoint() is None  # now O(delta)
        assert store.checkpoint(full=True) is not None  # forced rewrite
        assert not os.path.exists(manifest_delta_path(str(tmp_path)))
        store.close(final_checkpoint=False)

    def test_close_writes_full_manifest_and_clears_deltas(self, tmp_path,
                                                          signatures):
        store = _populate(tmp_path, signatures[:11], fsync="always",
                          checkpoint_every=4)
        assert os.path.exists(manifest_delta_path(str(tmp_path)))
        store.close()  # final checkpoint is always full
        assert load_manifest(str(tmp_path)).record_count == 11
        assert not os.path.exists(manifest_delta_path(str(tmp_path)))


class TestCompose:
    def test_reopen_composes_base_plus_deltas(self, tmp_path, signatures):
        _populate(tmp_path, signatures[:11], fsync="always",
                  checkpoint_every=4).close(final_checkpoint=False)
        store = SignatureStore(str(tmp_path), checkpoint_every=4)
        # Base 4 + one delta of 4: eight records load straight off the
        # composed manifest; only three replay with full validation.
        assert store.checkpoint_count == 8
        assert store.replayed_past_checkpoint == 3
        entries = store.recovered_entries()
        assert [e.index for e in entries] == list(range(11))
        for i, entry in enumerate(entries):
            assert entry.sig_id == signatures[i].sig_id
            assert entry.top_frames == signatures[i].top_frames
            assert entry.sender_uid == i % 3 + 1
        store.close(final_checkpoint=False)

    def test_composed_users_index_matches_history(self, tmp_path, signatures):
        _populate(tmp_path, signatures[:11], fsync="always",
                  checkpoint_every=4).close(final_checkpoint=False)
        store = SignatureStore(str(tmp_path))
        # The per-user index comes from each record's uid in the log, the
        # composed prefix included.
        entries = store.recovered_entries()
        assert [e.sender_uid for e in entries] == [i % 3 + 1
                                                  for i in range(11)]
        manifest = store.checkpoint(full=True)  # built from composed state
        assert manifest.sig_ids == [s.sig_id for s in signatures[:11]]
        store.close(final_checkpoint=False)

    def test_torn_delta_line_stops_composition_cleanly(self, tmp_path,
                                                       signatures):
        _populate(tmp_path, signatures[:16], fsync="always",
                  checkpoint_every=4).close(final_checkpoint=False)
        # Deltas cover [4,8), [8,12), [12,16); tear the last line the way
        # a crash mid-append would.
        path = manifest_delta_path(str(tmp_path))
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 20)
        store = SignatureStore(str(tmp_path))
        # Composition covers base + the intact deltas; the torn line's
        # records (and the tail) replay from the log — nothing is lost.
        assert store.checkpoint_count == 12
        assert store.replayed_past_checkpoint == 4
        assert len(store.recovered_entries()) == 16
        store.close(final_checkpoint=False)

    def test_mismatched_base_discards_the_chain(self, tmp_path, signatures):
        _populate(tmp_path, signatures[:11], fsync="always",
                  checkpoint_every=4).close(final_checkpoint=False)
        lines = _delta_lines(tmp_path)
        lines[0]["base"] = 999  # a chain pinned to some other manifest
        with open(manifest_delta_path(str(tmp_path)), "w",
                  encoding="utf-8") as fh:
            for line in lines:
                fh.write(json.dumps(line) + "\n")
        store = SignatureStore(str(tmp_path))
        assert store.checkpoint_count == 4  # base manifest alone
        assert store.replayed_past_checkpoint == 7
        assert len(store.recovered_entries()) == 11
        store.close(final_checkpoint=False)

    def test_missing_base_manifest_ignores_deltas(self, tmp_path, signatures):
        _populate(tmp_path, signatures[:11], fsync="always",
                  checkpoint_every=4).close(final_checkpoint=False)
        os.unlink(manifest_path(str(tmp_path)))
        store = SignatureStore(str(tmp_path))
        assert store.checkpoint_count == 0  # full validating replay
        assert len(store.recovered_entries()) == 11
        store.close(final_checkpoint=False)
