"""DurableStore: a journaled store's lifecycle, apart from evaluation.

``QueryService.from_snapshot(path, wal=True)`` keeps one as
``service.durable``; every other service has none and is ``read_only``.
Closing it stops the compactor before sealing the log, and its
degraded-mode probe is rate-limited per instance.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import StoreError, WalAppendError
from repro.service import QueryService
from repro.storage import DurableStore, scan_wal, wal_path_for

from faults import ENOSPCHandle

EDGES = [("alice", "knows", "bob"), ("bob", "knows", "carol")]


def _snapshot(tmp_path):
    durable = DurableStore.open(tmp_path / "snap")
    try:
        durable.store.add_term_triples(EDGES)
        durable.compact()
    finally:
        durable.close()
    return tmp_path / "snap"


def test_only_a_journaled_service_has_a_durable_store(tmp_path):
    snap = _snapshot(tmp_path)
    with QueryService.from_snapshot(snap) as plain:
        assert plain.durable is None
        assert plain.read_only is True
        assert not hasattr(plain, "persist")
        with pytest.raises(StoreError):
            plain.compact()
    with QueryService.from_snapshot(snap, wal=True) as journaled:
        assert isinstance(journaled.durable, DurableStore)
        assert journaled.durable.store is journaled.store
        assert journaled.read_only is False


def test_the_served_generation_lives_on_the_durable_store(tmp_path):
    snap = _snapshot(tmp_path)  # generation 1
    with QueryService.from_snapshot(snap, wal=True) as svc:
        assert svc.durable.generation == 1
        svc.store.add_term_triples([("carol", "knows", "dave")])
        assert svc.compact()["generation"] == 2
        stats = svc.snapshot()
        assert svc.durable.generation == 2
        assert stats["snapshot"] == {"path": str(snap), "generation": 2}
        assert stats["wal"]["generation"] == 2
        assert stats["wal"]["compactions"] == 1


def test_close_joins_the_compactor_and_seals_the_log(tmp_path):
    durable = DurableStore.open(tmp_path / "snap")
    durable.store.add_term_triples(EDGES)
    durable.store.remove_term_triple("bob", "knows", "carol")
    # An interval far beyond the test: close() must interrupt the wait.
    durable.start_compactor(interval=3600.0)
    thread = durable._compactor
    assert thread.is_alive() and durable.stats()["compactor_running"]

    started = time.monotonic()
    durable.close()
    assert time.monotonic() - started < 10.0
    assert not thread.is_alive()
    assert durable.stats()["compactor_running"] is False
    assert durable.store.write_log is None
    durable.close()  # idempotent

    scan = scan_wal(wal_path_for(tmp_path / "snap"))
    assert scan.committed_seq == 2
    assert not scan.torn


def test_maybe_probe_is_rate_limited_unless_forced(tmp_path):
    durable = DurableStore.open(tmp_path / "snap")
    wal = durable.store.write_log.wal
    disk = ENOSPCHandle(wal._handle)
    wal._handle = disk
    try:
        assert durable.maybe_probe() is None  # healthy: nothing to probe
        disk.arm()
        with pytest.raises(WalAppendError):
            durable.store.add_term_triples(EDGES)
        assert durable.degraded

        assert durable.maybe_probe(force=True) is False  # still full
        disk.disarm()
        assert durable.maybe_probe() is None  # inside the interval
        assert durable.degraded
        assert durable.maybe_probe(force=True) is True
        assert not durable.degraded
        assert durable.probes == {"ok": 1, "failed": 1}
    finally:
        durable.close()


def test_persist_seals_an_unsynced_log(tmp_path):
    durable = DurableStore.open(tmp_path / "snap", fsync="none")
    try:
        durable.store.add_term_triples(EDGES)
        assert durable.stats()["durable_seq"] == 0
        receipt = durable.persist()
        assert receipt["sealed"] is True
        assert receipt["wal"]["durable_seq"] == 1
    finally:
        durable.close()
