"""WAL group commit: one fsync amortized over a batch of appends.

The ``always`` policy's contract is unchanged — no append returns before
an fsync covers its record — but concurrent appends share flushes instead
of issuing one each.  These tests pin the split write/commit API the
store uses (``append`` is exactly that API: write phase, commit phase,
rollback on failure), the batching itself, and the failure contract (a
failed group fsync acks nobody and rolls back when the batch was a single
record).
"""

import os
import threading

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
        log.commit_appended(index + 1)  # already durable: follower path
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
        assert log.fsyncs_issued == 1  # the group-commit fsync, no inline one
        log.close()


class TestConcurrentBatching:
    def test_concurrent_appends_share_fsyncs(self, tmp_path, monkeypatch):
        """One leader is held inside its fsync until every other appender
        has staged its record; the next leader's single fsync must then
        cover all of them.  No timing: the batch is exactly [1, k-1]."""
        log = SegmentedLog(str(tmp_path), fsync="always")
        followers = 7
        total = followers + 1
        leader_in_fsync = threading.Event()
        staged = threading.Semaphore(0)
        records_at_fsync = []
        real_fsync = os.fsync
        write_phase = log.append_unflushed

        def counting_write_phase(blob, sender_uid):
            result = write_phase(blob, sender_uid)
            staged.release()
            return result

        def gated_fsync(fd):
            records_at_fsync.append(log.record_count)
            if len(records_at_fsync) == 1:
                leader_in_fsync.set()
                for _ in range(total):  # the leader's own stage + followers'
                    assert staged.acquire(timeout=30.0)
            real_fsync(fd)

        monkeypatch.setattr(log, "append_unflushed", counting_write_phase)
        monkeypatch.setattr(os, "fsync", gated_fsync)
        errors = []

        def run(uid):
            try:
                log.append(f"t{uid}".encode(), uid)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        workers = [threading.Thread(target=run, args=(t,))
                   for t in range(total)]
        workers[0].start()
        assert leader_in_fsync.wait(timeout=30.0)
        for worker in workers[1:]:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
            assert not worker.is_alive()
        assert not errors
        assert log.record_count == total
        assert log.durable_count == total  # every append returned durable
        # The held leader covered only itself; one more fsync covered the
        # other seven, and nobody else touched the disk.
        assert records_at_fsync == [1, total]
        assert log.fsyncs_issued == 2
        log.close()
        monkeypatch.undo()
        reopened = SegmentedLog(str(tmp_path), fsync="never")
        assert reopened.record_count == total
        assert len(reopened.recovered_records()) == total
        reopened.close()


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
