"""Group-commit fsync batching in the write-ahead log.

Concurrent appenders under ``fsync="batch"`` must share fsyncs (one
leader commits everyone flushed before it) without weakening the
acknowledged-write guarantee: every ``append()`` still returns only
once its own record is durable, and the on-disk log stays intact
through contention, truncation, and close.
"""

import threading
import time

import pytest

from repro.errors import WalError
from repro.storage import WriteAheadLog, scan_wal


def wal_at(tmp_path, name="log.wal", **kwargs):
    return WriteAheadLog.open(tmp_path / name, **kwargs)


def test_serial_appends_each_commit(tmp_path):
    """No contention → no batching: one fsync per acknowledged append."""
    with wal_at(tmp_path) as wal:
        for _ in range(5):
            wal.append(adds=[(1, 2, 3)])
        stats = wal.stats()
    assert stats["appended"] == 5
    assert stats["group_commits"] == 5
    assert stats["absorbed"] == 0
    assert stats["durable_seq"] == 5


def test_contended_appenders_share_fsyncs(tmp_path, monkeypatch):
    """With a slow disk, N appenders commit in far fewer than N fsyncs."""
    import repro.storage.wal as wal_mod

    real_fsync = wal_mod.os.fsync

    def slow_fsync(fd):
        time.sleep(0.002)
        real_fsync(fd)

    monkeypatch.setattr(wal_mod.os, "fsync", slow_fsync)

    threads, per_thread = 4, 25
    with wal_at(tmp_path) as wal:

        def appender(tag):
            for i in range(per_thread):
                wal.append(adds=[(tag, i, i)])

        workers = [
            threading.Thread(target=appender, args=(t,))
            for t in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        stats = wal.stats()

    total = threads * per_thread
    assert stats["appended"] == total
    assert stats["durable_seq"] == total
    # Batching happened: under 0.9 fsyncs per acknowledged append
    # (serial appenders pay exactly 1.0, see above), and the absorbed
    # appends account for the difference in waiters released.
    assert stats["group_commits"] / total < 0.9
    assert stats["absorbed"] > 0

    scan = scan_wal(tmp_path / "log.wal")
    assert not scan.torn
    assert scan.committed_seq == total
    assert len(scan.records) == total


def test_contended_appends_survive_concurrent_truncation(tmp_path):
    """Appenders racing truncate_through never deadlock or tear the log."""
    with wal_at(tmp_path) as wal:
        stop = threading.Event()
        errors = []

        def appender(tag):
            try:
                for i in range(40):
                    wal.append(adds=[(tag, i, i)])
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)
            finally:
                stop.set()

        workers = [
            threading.Thread(target=appender, args=(t,)) for t in range(3)
        ]
        for w in workers:
            w.start()
        while not stop.is_set():
            wal.truncate_through(wal.last_seq // 2)
        for w in workers:
            w.join()
        wal.truncate_through(wal.last_seq - 5)
        assert not errors
        survivors = wal.record_count
        last = wal.last_seq
        assert last == 120

    scan = scan_wal(tmp_path / "log.wal")
    assert not scan.torn
    assert len(scan.records) == survivors
    assert scan.committed_seq == last


def test_explicit_sync_joins_group_commit(tmp_path):
    """``sync()`` under fsync='none' advances the durable horizon."""
    with wal_at(tmp_path, fsync="none") as wal:
        for _ in range(3):
            wal.append(adds=[(1, 2, 3)])
        assert wal.stats()["group_commits"] == 0
        wal.sync()
        stats = wal.stats()
        assert stats["durable_seq"] == 3
        assert stats["group_commits"] == 1
        wal.sync()  # already durable: absorbed for free, no new fsync
        assert wal.stats()["group_commits"] == 1


def test_append_after_close_still_raises(tmp_path):
    wal = wal_at(tmp_path)
    wal.append(adds=[(1, 2, 3)])
    wal.close()
    with pytest.raises(WalError, match="closed"):
        wal.append(adds=[(4, 5, 6)])
    with pytest.raises(WalError, match="closed"):
        wal.sync()
