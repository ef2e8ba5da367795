"""The WAL's split append API: buffer records, commit them with one fsync.

The ``always`` policy's contract — no append returns before an fsync
covers its record — rests on ``commit_appended``, one flush plus fsync of
everything buffered so far.  A caller storing a batch (the client
repository, one page at a time) buffers each record and commits once.
These tests pin that API (``append`` is exactly write phase, commit
phase, rollback on failure), the skipped fsync when a commit is already
covered, and the failure contract (a failed fsync acks nothing and rolls
the record back).
"""

import os

import pytest

from repro.store.wal import SegmentedLog


class TestSplitApi:
    def test_one_commit_covers_many_buffered_writes(self, tmp_path):
        log = SegmentedLog(str(tmp_path), fsync="always")
        for i in range(3):
            assert log.append_unflushed(f"blob-{i}".encode(), i) == i
        assert log.record_count == 3
        assert log.durable_count == 0  # write phase promises nothing
        log.commit_appended(3)
        assert log.durable_count == 3
        assert log.fsyncs_issued == 1  # one flush for the whole batch
        log.close()
        reopened = SegmentedLog(str(tmp_path), fsync="never")
        assert reopened.record_count == 3
        reopened.close()

    def test_covered_commit_skips_the_disk(self, tmp_path):
        log = SegmentedLog(str(tmp_path), fsync="always")
        index = log.append_unflushed(b"x", 1)
        log.commit_appended(index + 1)
        assert log.fsyncs_issued == 1
        log.commit_appended(index + 1)  # already durable: no fsync
        assert log.fsyncs_issued == 1
        log.close()

    def test_commit_is_noop_under_never(self, tmp_path):
        log = SegmentedLog(str(tmp_path), fsync="never")
        index = log.append_unflushed(b"x", 1)
        log.commit_appended(index + 1)
        assert log.fsyncs_issued == 0
        assert log.durable_count == 0
        log.close()

    def test_plain_append_still_durable_before_return(self, tmp_path):
        log = SegmentedLog(str(tmp_path), fsync="always")
        log.append(b"x", 1)
        assert log.durable_count == 1
        assert log.fsyncs_issued == 1  # the commit's fsync, no other
        log.close()


class TestCommitFailure:
    def test_failed_sole_record_batch_rolls_back(self, tmp_path, monkeypatch):
        log = SegmentedLog(str(tmp_path), fsync="always")
        log.append(b"keep", 1)
        state = {"fail": False}
        real_fsync = os.fsync

        def flaky_fsync(fd):
            if state["fail"]:
                raise OSError("disk gone")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", flaky_fsync)
        state["fail"] = True
        with pytest.raises(OSError):
            log.append(b"lost", 2)
        state["fail"] = False
        # The sole-record batch was rolled back completely: counters,
        # durability, and the file all read as if the append never ran.
        assert log.record_count == 1
        assert log.durable_count == 1
        log.append(b"again", 3)  # the log stays usable
        assert log.record_count == 2
        log.close()
        reopened = SegmentedLog(str(tmp_path), fsync="never")
        blobs = [r.blob for r in reopened.recovered_records()]
        assert blobs == [b"keep", b"again"]
        reopened.close()

    def test_rollback_appended_only_newest_uncovered(self, tmp_path):
        log = SegmentedLog(str(tmp_path), fsync="always")
        index = log.append_unflushed(b"a", 1)
        assert log.rollback_appended(index) is True
        assert log.record_count == 0
        index = log.append_unflushed(b"a", 1)
        log.commit_appended(index + 1)
        assert log.rollback_appended(index) is False  # an fsync covers it
        first = log.append_unflushed(b"b", 2)
        second = log.append_unflushed(b"c", 3)
        assert log.rollback_appended(first) is False  # not the newest
        assert log.rollback_appended(second) is True
        assert log.record_count == first + 1
        log.close()
        reopened = SegmentedLog(str(tmp_path), fsync="never")
        assert [r.blob for r in reopened.recovered_records()] == [b"a", b"b"]
        reopened.close()
