"""Segmented log: rotation, fsync policies, and crash recovery."""

import os

import pytest

from repro.store import SignatureStore
from repro.store.records import pack_record
from repro.store.wal import SegmentedLog, list_segments, segment_filename


def _fill(log, n, start=0):
    for i in range(start, start + n):
        log.append(f"blob-{i}".encode(), i % 5)


class TestFsyncPolicy:
    def test_parse_always_never(self, tmp_path):
        for policy in ("always", "never"):
            log = SegmentedLog(str(tmp_path / policy), fsync=policy)
            assert log.fsync_policy == policy
            log.close()

    @pytest.mark.parametrize("bad", ["", "sometimes", "interval",
                                     "interval:", "interval:-5",
                                     "interval:zero", "intervalgarbage:50",
                                     "interval_flush:50", "always:5"])
    def test_parse_rejects(self, tmp_path, bad):
        with pytest.raises(ValueError, match="always or never"):
            SegmentedLog(str(tmp_path), fsync=bad)

    def test_store_rejects_the_removed_interval_policy(self, tmp_path):
        with pytest.raises(ValueError, match="always or never"):
            SignatureStore(str(tmp_path / "data"), fsync="interval:5")
        assert not (tmp_path / "data").exists()  # rejected before any I/O

    def test_explicit_flush_any_policy(self, tmp_path):
        log = SegmentedLog(str(tmp_path), fsync="never")
        log.append(b"payload", 1)
        assert log.durable_count == 0  # never: the append promised nothing
        log.flush()
        assert log.durable_count == log.record_count == 1
        log.close()


class TestRotation:
    def test_segments_rotate_at_boundary(self, tmp_path):
        log = SegmentedLog(str(tmp_path), segment_records=4, fsync="never")
        _fill(log, 10)
        log.close()
        names = [name for _, name in list_segments(str(tmp_path))]
        assert names == [segment_filename(0), segment_filename(1),
                         segment_filename(2)]
        # Sealed segments hold exactly segment_records records; the tail
        # holds the remainder.
        sizes = [os.path.getsize(tmp_path / n) for n in names]
        assert sizes[0] == sizes[1] > 0  # 4 records each (same blobs sizes differ)

    def test_indices_are_sequential(self, tmp_path):
        log = SegmentedLog(str(tmp_path), segment_records=3, fsync="never")
        indices = [log.append(b"x", 0) for _ in range(7)]
        assert indices == list(range(7))
        assert log.record_count == 7
        log.close()

    def test_append_after_close_fails(self, tmp_path):
        log = SegmentedLog(str(tmp_path), fsync="never")
        log.close()
        with pytest.raises(ValueError):
            log.append(b"x", 0)


class TestRecovery:
    def test_reopen_recovers_all_records(self, tmp_path):
        log = SegmentedLog(str(tmp_path), segment_records=4, fsync="always")
        _fill(log, 11)
        log.close()
        log2 = SegmentedLog(str(tmp_path), segment_records=4, fsync="never")
        records = log2.recovered_records()
        assert [r.blob for r in records] == [f"blob-{i}".encode()
                                             for i in range(11)]
        assert [r.sender_uid for r in records] == [i % 5 for i in range(11)]
        assert log2.record_count == 11
        # Appends continue in the recovered tail segment.
        assert log2.append(b"new", 9) == 11
        log2.close()

    def test_recovered_records_consumed_once(self, tmp_path):
        log = SegmentedLog(str(tmp_path), fsync="never")
        _fill(log, 3)
        log.close()
        log2 = SegmentedLog(str(tmp_path), fsync="never")
        assert len(log2.recovered_records()) == 3
        assert log2.recovered_records() == []
        log2.close()

    def test_torn_tail_truncated(self, tmp_path):
        log = SegmentedLog(str(tmp_path), segment_records=4, fsync="always")
        _fill(log, 6)
        log.close()
        tail = tmp_path / segment_filename(1)
        size = os.path.getsize(tail)
        with open(tail, "r+b") as fh:
            fh.truncate(size - 3)  # tear the last record
        log2 = SegmentedLog(str(tmp_path), segment_records=4, fsync="never")
        assert log2.record_count == 5
        assert log2.recovery.truncated_bytes > 0
        # The file itself was repaired, and the next append reuses slot 5.
        assert log2.append(b"replacement", 1) == 5
        log2.close()
        log3 = SegmentedLog(str(tmp_path), segment_records=4, fsync="never")
        assert [r.blob for r in log3.recovered_records()][-1] == b"replacement"
        assert log3.recovery.truncated_bytes == 0
        log3.close()

    def test_segments_after_damage_are_orphaned(self, tmp_path):
        log = SegmentedLog(str(tmp_path), segment_records=2, fsync="always")
        _fill(log, 6)  # three full segments
        log.close()
        middle = tmp_path / segment_filename(1)
        data = middle.read_bytes()
        # Mid-log damage with *torn* evidence (cut inside a record).
        middle.write_bytes(data[:len(data) // 2 + 3])
        log2 = SegmentedLog(str(tmp_path), segment_records=2, fsync="never")
        # Longest valid prefix: segment 0 plus what survived of segment 1;
        # the full segment 2 after the damage is set aside, not stitched.
        assert log2.record_count < 4
        assert log2.recovery.truncated_bytes == 3
        assert log2.recovery.orphaned_segments == 1
        orphans = [n for n in os.listdir(tmp_path) if n.endswith(".orphan")]
        assert orphans == [segment_filename(2) + ".orphan"]
        log2.close()

    def test_cleanly_short_non_final_segment_refuses_without_manifest(
            self, tmp_path):
        # A dir written with segment_records=2 reopened with 4 looks like
        # "short segment 0 with followers, zero torn bytes" — that is
        # indistinguishable from a misconfigured reopen, and orphaning
        # the followers would discard durable records.  Refuse instead.
        log = SegmentedLog(str(tmp_path), segment_records=2, fsync="never")
        _fill(log, 6)
        log.close()
        with pytest.raises(ValueError, match="segmentation"):
            SegmentedLog(str(tmp_path), segment_records=4, fsync="never")
        # The right configuration still opens everything.
        good = SegmentedLog(str(tmp_path), segment_records=2, fsync="never")
        assert good.record_count == 6
        good.close()

    def test_sequence_gap_is_orphaned(self, tmp_path):
        log = SegmentedLog(str(tmp_path), segment_records=2, fsync="never")
        _fill(log, 2)
        log.close()
        # A stray future segment (e.g. from a mis-restored backup).
        (tmp_path / segment_filename(5)).write_bytes(pack_record(b"stray", 1))
        log2 = SegmentedLog(str(tmp_path), segment_records=2, fsync="never")
        assert log2.record_count == 2
        assert log2.recovery.orphaned_segments == 1
        log2.close()

    def test_trusted_prefix_skips_crc(self, tmp_path):
        log = SegmentedLog(str(tmp_path), segment_records=2, fsync="always")
        _fill(log, 4)
        log.close()
        # Corrupt a blob byte in sealed segment 0 *without* touching the
        # framing: a trusting open must not notice, a verifying one must.
        seg0 = tmp_path / segment_filename(0)
        data = bytearray(seg0.read_bytes())
        data[-1] ^= 0xFF
        seg0.write_bytes(bytes(data))
        verifying = SegmentedLog(str(tmp_path), segment_records=2,
                                 fsync="never")
        assert verifying.record_count < 4
        verifying.close()


class TestFailedAppendRollback:
    def test_fsync_failure_rolls_back_completely(self, tmp_path, monkeypatch):
        import repro.store.wal as wal_module

        log = SegmentedLog(str(tmp_path), segment_records=4, fsync="always")
        log.append(b"good", 1)
        real_fsync = os.fsync

        def failing_fsync(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(wal_module.os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            log.append(b"doomed", 2)
        monkeypatch.setattr(wal_module.os, "fsync", real_fsync)
        # The failed append left no trace: count unchanged, next append
        # takes the same index, and nothing of the doomed record is on
        # disk after reopen.
        assert log.record_count == 1
        assert log.append(b"retry", 3) == 1
        log.close()
        reopened = SegmentedLog(str(tmp_path), segment_records=4,
                                fsync="never")
        assert [r.blob for r in reopened.recovered_records()] == [
            b"good", b"retry"
        ]
        assert reopened.recovery.truncated_bytes == 0
        reopened.close()
