"""QueryService over the crash-safe write path (wal=True).

The journaled service keeps its store's lifecycle on ``service.durable``
(a :class:`~repro.storage.DurableStore`): cheap ``persist()`` (seal,
not rewrite), ``compact()`` + the background compactor, the WAL gauges
in ``snapshot()``, and the crash-safe lifecycle end to end.
"""

import time

import pytest

from repro.errors import StoreError
from repro.graph.backends import available_backends
from repro.service import QueryService
from repro.storage import (
    scan_wal,
    snapshot_generation,
    store_fingerprint,
    wal_path_for,
)

BACKENDS = available_backends()

EDGES = [
    ("alice", "knows", "bob"),
    ("bob", "knows", "carol"),
    ("alice", "created", "thing"),
]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def test_wal_service_lifecycle(tmp_path, backend):
    snap = tmp_path / "snap"
    with QueryService.from_snapshot(snap, wal=True, backend=backend) as svc:
        assert not svc.store.frozen
        svc.store.add_term_triples(EDGES)
        svc.store.remove_term_triple("bob", "knows", "carol")
        fp = store_fingerprint(svc.store)

        # persist() with a log attached is a seal, not a rewrite:
        receipt = svc.durable.persist()
        assert receipt["sealed"] is True
        assert receipt["wal"]["records"] == 2
        assert not (snap.exists())  # nothing forced a snapshot

    # The service owned the log: close() sealed and detached it.
    scan = scan_wal(wal_path_for(snap))
    assert scan.committed_seq == 2 and not scan.torn

    with QueryService.from_snapshot(snap, wal=True, backend=backend) as warm:
        assert store_fingerprint(warm.store) == fp


def test_snapshot_reports_wal_gauges(tmp_path, backend):
    snap = tmp_path / "snap"
    with QueryService.from_snapshot(snap, wal=True, backend=backend) as svc:
        svc.store.add_term_triples(EDGES)
        gauges = svc.snapshot()["wal"]
        assert gauges["records"] == 1
        assert gauges["last_seq"] == 1
        assert gauges["fsync"] == "batch"
        assert gauges["compactions"] == 0
        assert gauges["compactor_running"] is False
        assert gauges["generation"] == 0
    # ... and a plain frozen service reports none.
    from repro.graph.store import TripleStore

    store = TripleStore(backend=backend)
    store.add_term_triples(EDGES)
    store.freeze()
    with QueryService(store) as plain:
        assert "wal" not in plain.snapshot()


def test_service_compact_folds_the_log(tmp_path, backend):
    snap = tmp_path / "snap"
    with QueryService.from_snapshot(snap, wal=True, backend=backend) as svc:
        svc.store.add_term_triples(EDGES)
        manifest = svc.compact()
        assert manifest["generation"] == 1
        gauges = svc.snapshot()["wal"]
        assert gauges["records"] == 0
        assert gauges["compactions"] == 1
        assert gauges["generation"] == 1
        fp = store_fingerprint(svc.store)
    assert snapshot_generation(snap) == 1
    with QueryService.from_snapshot(snap, wal=True, backend=backend) as warm:
        assert store_fingerprint(warm.store) == fp


def test_persist_full_and_foreign_path_write_snapshots(tmp_path, backend):
    snap = tmp_path / "snap"
    with QueryService.from_snapshot(snap, wal=True, backend=backend) as svc:
        svc.store.add_term_triples(EDGES)
        manifest = svc.durable.persist(full=True)
        assert manifest["num_triples"] == len(EDGES)
        foreign = svc.durable.persist(tmp_path / "export")
        assert foreign["num_triples"] == len(EDGES)
    # The foreign copy is a plain snapshot, loadable without a WAL.
    with QueryService.from_snapshot(tmp_path / "export") as cold:
        assert cold.store.num_triples == len(EDGES)


def test_persist_without_log_or_path_is_an_error(backend):
    from repro.graph.store import TripleStore

    store = TripleStore(backend=backend)
    store.add_term_triples(EDGES)
    store.freeze()
    with QueryService(store) as svc:
        # Nothing to seal: exports go through save_snapshot instead.
        assert svc.durable is None
        assert not hasattr(svc, "persist")


def test_background_compactor_runs_and_stops(tmp_path, backend):
    snap = tmp_path / "snap"
    with QueryService.from_snapshot(snap, wal=True, backend=backend) as svc:
        svc.store.add_term_triples(EDGES)
        svc.durable.start_compactor(interval=0.05, min_bytes=1)
        with pytest.raises(RuntimeError, match="already running"):
            svc.durable.start_compactor(interval=0.05)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if svc.snapshot()["wal"]["compactions"]:
                break
            time.sleep(0.02)
        gauges = svc.snapshot()["wal"]
        assert gauges["compactions"] >= 1
        assert gauges["generation"] >= 1
        assert gauges["records"] == 0
        fp = store_fingerprint(svc.store)
    assert snapshot_generation(snap) >= 1
    with QueryService.from_snapshot(snap, wal=True, backend=backend) as warm:
        assert store_fingerprint(warm.store) == fp


def test_compactor_requires_a_write_log(backend):
    from repro.graph.store import TripleStore

    store = TripleStore(backend=backend)
    store.freeze()
    with QueryService(store) as svc:
        assert not hasattr(svc, "start_compactor")
        with pytest.raises(StoreError, match="no write-ahead log"):
            svc.compact()


def test_stored_catalog_reused_only_when_nothing_replayed(tmp_path, backend):
    snap = tmp_path / "snap"
    with QueryService.from_snapshot(snap, wal=True, backend=backend) as svc:
        svc.store.add_term_triples(EDGES)
        svc.compact()  # snapshot + empty log → catalog on disk is fresh
    with QueryService.from_snapshot(snap, wal=True, backend=backend) as warm:
        # No replay happened, so the stored catalog was adopted as-is.
        assert warm.engine.catalog == warm.store.catalog()
        warm.store.add_term_triples([("new", "knows", "alice")])
    with QueryService.from_snapshot(snap, wal=True, backend=backend) as warm2:
        # One record replayed: the stale stored catalog must NOT be
        # used — statistics reflect the replayed write.
        p = warm2.store.dictionary.lookup("knows")
        assert warm2.engine.catalog.unigram(p).count == 3
