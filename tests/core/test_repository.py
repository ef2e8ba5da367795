"""Local repository tests (§III-B): incremental download + per-app cursors."""

import pytest

from repro.core.repository import LocalRepository
from repro.core.signature import ORIGIN_REMOTE
from repro.util.errors import HistoryError


@pytest.fixture
def sigs(shared_factory):
    return [shared_factory.make_valid() for _ in range(5)]


class TestAppend:
    def test_append_and_len(self, sigs):
        repo = LocalRepository()
        assert repo.append_from_server(sigs[:3]) == 3
        assert len(repo) == 3
        assert repo.server_index == 3

    def test_duplicates_not_stored_twice(self, sigs):
        repo = LocalRepository()
        repo.append_from_server(sigs[:2])
        added = repo.append_from_server(sigs[:3], next_server_index=3)
        assert added == 1
        assert len(repo) == 3

    def test_origin_forced_remote(self, sigs):
        repo = LocalRepository()
        repo.append_from_server([sigs[0].with_origin("local")])
        assert repo.signature_at(0).origin == ORIGIN_REMOTE

    def test_explicit_server_index(self, sigs):
        repo = LocalRepository()
        repo.append_from_server(sigs[:2], next_server_index=10)
        assert repo.server_index == 10
        # A later, smaller index never rewinds the cursor.
        repo.append_from_server([sigs[2]], next_server_index=4)
        assert repo.server_index == 10


class TestPerAppCursors:
    def test_new_signatures_start_at_cursor(self, sigs):
        repo = LocalRepository()
        repo.append_from_server(sigs[:4])
        batch = repo.new_signatures_for("appX")
        assert [i for i, _ in batch] == [0, 1, 2, 3]
        repo.advance_cursor("appX", 4)
        assert repo.new_signatures_for("appX") == []

    def test_each_signature_inspected_once(self, sigs):
        repo = LocalRepository()
        repo.append_from_server(sigs[:2])
        repo.advance_cursor("appX", 2)
        repo.append_from_server(sigs[2:4])
        batch = repo.new_signatures_for("appX")
        assert [i for i, _ in batch] == [2, 3]

    def test_cursors_independent_per_app(self, sigs):
        repo = LocalRepository()
        repo.append_from_server(sigs[:3])
        repo.advance_cursor("appX", 3)
        assert len(repo.new_signatures_for("appY")) == 3

    def test_cursor_never_rewinds(self, sigs):
        repo = LocalRepository()
        repo.append_from_server(sigs[:3])
        repo.advance_cursor("appX", 3)
        repo.advance_cursor("appX", 1)
        assert repo.get_cursor("appX") == 3


class TestPendingNesting:
    def test_round_trip(self):
        repo = LocalRepository()
        repo.set_pending_nesting("appX", [3, 1, 3])
        assert repo.pending_nesting("appX") == [1, 3]
        assert repo.pending_nesting("appY") == []


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, sigs):
        path = tmp_path / "repo.json"
        repo = LocalRepository(path=path)
        repo.append_from_server(sigs[:3], next_server_index=7)
        repo.advance_cursor("appX", 2)
        repo.set_pending_nesting("appX", [1])

        reloaded = LocalRepository(path=path)
        assert len(reloaded) == 3
        assert reloaded.server_index == 7
        assert reloaded.get_cursor("appX") == 2
        assert reloaded.pending_nesting("appX") == [1]
        assert reloaded.signature_at(0).sig_id == sigs[0].sig_id

    def test_cursor_bump_does_not_rewrite_signatures(self, tmp_path, sigs):
        """Regression for O(n) persistence: advance_cursor / pending-nesting
        updates must only touch the small sidecar, never re-encode the
        signature list."""
        path = tmp_path / "repo.json"
        repo = LocalRepository(path=path)
        repo.append_from_server(sigs, next_server_index=5)
        stat_before = path.stat()
        marker = (stat_before.st_mtime_ns, stat_before.st_ino, path.read_bytes())
        repo.advance_cursor("appX", 3)
        repo.set_pending_nesting("appX", [1, 2])
        stat_after = path.stat()
        assert (stat_after.st_mtime_ns, stat_after.st_ino,
                path.read_bytes()) == marker
        sidecar = tmp_path / "repo.json.state"
        assert sidecar.exists()
        reloaded = LocalRepository(path=path)
        assert reloaded.get_cursor("appX") == 3
        assert reloaded.pending_nesting("appX") == [1, 2]
        assert reloaded.server_index == 5

    def test_version_1_single_file_layout_rejected(self, tmp_path, sigs):
        """The single-file layout (state inline, ``"version": 1``) is no
        longer read or migrated: loading one names the file and leaves it
        untouched."""
        import json

        path = tmp_path / "repo.json"
        text = json.dumps({
            "version": 1,
            "server_index": 9,
            "signatures": [s.encode() for s in sigs[:2]],
            "cursors": {"appX": 2},
            "pending_nesting": {"appX": [0]},
        })
        path.write_text(text)
        with pytest.raises(HistoryError, match=str(path)):
            LocalRepository(path=path)
        assert path.read_text() == text
        assert not (tmp_path / "repo.json.state").exists()

    def test_missing_sidecar_defaults_to_signature_count(self, tmp_path, sigs):
        path = tmp_path / "repo.json"
        repo = LocalRepository(path=path)
        repo.append_from_server(sigs[:3])
        (tmp_path / "repo.json.state").unlink()
        reloaded = LocalRepository(path=path)
        assert len(reloaded) == 3
        assert reloaded.server_index == 3
        assert reloaded.get_cursor("appX") == 0

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "repo.json"
        path.write_text("not json at all {")
        with pytest.raises(HistoryError):
            LocalRepository(path=path)

    @pytest.mark.parametrize("text", ['{"version": 42}', "[1, 2]", "{}"])
    def test_wrong_version_raises(self, tmp_path, text):
        path = tmp_path / "repo.json"
        path.write_text(text)
        with pytest.raises(HistoryError):
            LocalRepository(path=path)
