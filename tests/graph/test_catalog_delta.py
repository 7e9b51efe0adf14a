"""The delta-maintained catalog: a write costs what it touches.

``TripleStore.catalog()`` patches its memo from the triples each write
batch actually changed; the result must always ``==`` a from-scratch
``build_catalog``. Runs on whichever backend ``REPRO_BACKEND`` selects.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.stats.catalog as catalog_module
from repro.graph.store import TripleStore
from repro.stats.catalog import build_catalog

SETTINGS = settings(max_examples=60, deadline=None)

#: Ids are raw ints: nodes 0..7, predicates 100..103 (the id spaces may
#: overlap in a real dictionary; the catalog never cares).
NODE = st.integers(min_value=0, max_value=7)
PRED = st.integers(min_value=100, max_value=103)
TRIPLE = st.tuples(NODE, PRED, NODE)  # s == o happens: self-loops
BATCH = st.lists(TRIPLE, min_size=1, max_size=6)  # duplicates happen
STEP = st.tuples(st.sampled_from(("add", "remove", "empty")), BATCH, st.booleans())


def forbid_full_builds(monkeypatch) -> None:
    def refuse(store, *args, **kwargs):
        raise AssertionError("full build_catalog on the delta path")

    monkeypatch.setattr(catalog_module, "build_catalog", refuse)


def endpoints(store: TripleStore) -> set[int]:
    return {x for s, _, o in store.triples() for x in (s, o)}


class TestPatchedEqualsRebuilt:
    @SETTINGS
    @given(initial=st.lists(TRIPLE, max_size=30), steps=st.lists(STEP, max_size=12))
    def test_after_every_step(self, initial, steps):
        store = TripleStore()
        store.add_triples(initial)
        assert store.catalog() == build_catalog(store)
        for kind, batch, read_between in steps:
            if kind == "add":
                store.add_triples(batch)
            elif kind == "remove":  # mostly no-ops and partial hits
                store.remove_triples(batch)
            else:  # empty one predicate, then re-add different triples
                p = batch[0][1]
                store.remove_triples([(s, p, o) for s, o in list(store.edges(p))])
                assert p not in store.predicates()
                store.add_triples(batch)
            if read_between:  # columnar: seal some staging, not all
                store.count(batch[0][1])
            patched = store.catalog()
            assert patched == build_catalog(store)
            assert patched.num_nodes == len(endpoints(store))
        assert store.catalog_refreshes["full"] == 1  # only the first one

    def test_small_write_never_rebuilds(self, mini_yago, monkeypatch):
        store = TripleStore(backend=mini_yago.backend_name)
        store.add_triples(mini_yago.triples())
        before = store.catalog()
        p, q = store.predicates()[:2]
        s, o = next(iter(store.edges(p)))
        forbid_full_builds(monkeypatch)
        store.add_triples([(s, q, o), (o, p, s), (s, p, s)])
        store.remove_triples([(s, p, o)])
        after = store.catalog()
        monkeypatch.undo()
        assert after is not before
        assert after == build_catalog(store)
        assert store.catalog_refreshes == {"full": 1, "delta": 1}
        assert store.catalog() is after  # memoized until the next write

    def test_noop_write_keeps_the_memo(self):
        store = TripleStore()
        store.add_triples([(1, 100, 2)])
        memo = store.catalog()
        assert store.add_triples([(1, 100, 2)]) == 0
        assert store.remove_triples([(5, 100, 6)]) == 0
        assert store.catalog() is memo

    def test_an_old_sampled_catalog_json_is_patched(self, mini_yago):
        """A ``catalog.json`` written by a sampled build (1.8.0 and
        earlier) carries ``"sampled": true``; it loads, and a store
        seeded with it patches it like any other memo."""
        from repro.stats.catalog import Catalog

        exact = build_catalog(mini_yago)
        saved = {**exact.to_dict(), "sampled": True}
        loaded = Catalog.from_dict(saved)
        assert loaded == exact and hash(loaded) == hash(exact)
        assert loaded.to_dict() == exact.to_dict()
        store = TripleStore(backend=mini_yago.backend_name)
        store.add_triples(mini_yago.triples())
        store.seed_catalog(loaded)
        store.add_triples([(1, store.predicates()[0], 2)])
        assert store.catalog() == build_catalog(store)
        assert store.catalog_refreshes == {"full": 0, "delta": 1}


class TestFallsBackToFullBuild:
    def test_when_more_is_pending_than_a_patch_is_worth(self):
        store = TripleStore()
        store.add_triples([(1, 100, 2)])
        store.catalog()
        store.add_triples((i, 100, i + 1) for i in range(10, 10 + 400))
        assert store._catalog_memo is None and store._pending == []
        assert store.catalog() == build_catalog(store)
        assert store.catalog_refreshes == {"full": 2, "delta": 0}

    def test_when_the_backend_was_mutated_behind_the_facade(self):
        store = TripleStore()
        store.add_triples([(1, 100, 2)])
        store.catalog()
        store.backend.add(2, 100, 3)  # not reported to the store
        store.add_triples([(3, 100, 4)])
        assert store.catalog() == build_catalog(store)
        assert store.catalog_refreshes == {"full": 2, "delta": 0}


class TestPredicateEpoch:
    def test_counts_mutations_of_one_predicate_only(self):
        store = TripleStore()
        assert store.predicate_epoch(100) == 0
        assert store.predicate_epoch(None) == 0
        store.add_triples([(1, 100, 2), (1, 100, 2), (2, 100, 3), (1, 101, 2)])
        assert (store.predicate_epoch(100), store.predicate_epoch(101)) == (2, 1)
        store.remove_triples([(1, 100, 2), (7, 100, 7)])
        assert (store.predicate_epoch(100), store.predicate_epoch(101)) == (3, 1)
        assert store.epoch == 4

    def test_never_resets_when_a_predicate_empties(self):
        store = TripleStore()
        store.add_triples([(1, 100, 2)])
        store.remove_triples([(1, 100, 2)])
        assert 100 not in store.predicates()
        store.add_triples([(3, 100, 4)])
        # Same size as at version 1, different content: no ABA.
        assert store.predicate_epoch(100) == 3


class TestNodesAfterRemoval:
    def test_only_orphaned_endpoints_drop_out(self):
        store = TripleStore()
        store.add_triples([(1, 100, 2), (2, 100, 3), (1, 101, 4), (5, 101, 1)])
        store.count(100)  # columnar: 100 sealed, 101 still staged
        store.remove_triples([(1, 100, 2)])
        # 1 survives as a 101-subject and a 101-object, 2 as a 100-subject.
        assert store.nodes() == {1, 2, 3, 4, 5}
        store.remove_triples([(2, 100, 3)])
        assert store.nodes() == {1, 4, 5}
        store.remove_triples([(5, 101, 1)])
        assert store.nodes() == {1, 4}
        store.add_triples([(5, 101, 5)])
        store.remove_triples([(1, 101, 4), (5, 101, 5)])
        assert store.nodes() == set() and store.num_nodes == 0

    def test_removal_does_not_rescan_the_store(self, mini_yago):
        store = TripleStore(backend=mini_yago.backend_name)
        store.add_triples(mini_yago.triples())
        before = set(store.nodes())
        live = store.nodes()
        s, p, o = next(iter(store.triples()))
        store.remove_triples([(s, p, o)])
        # Settled in place on the incrementally kept set, not rebuilt.
        assert store.nodes() is live
        assert store.nodes() == endpoints(store)
        assert before - store.nodes() <= {s, o}


class TestSingleFlight:
    def test_concurrent_callers_share_one_refresh(self, mini_yago):
        """More threads than cores all arrive after one write: exactly
        one of them refreshes, the rest get its catalog."""
        store = TripleStore(backend=mini_yago.backend_name)
        store.add_triples(mini_yago.triples())
        for kind in ("full", "delta"):
            refreshes = sum(store.catalog_refreshes.values())
            results: list = []
            barrier = threading.Barrier(8)

            def worker():
                barrier.wait(timeout=30)
                results.append(store.catalog())

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=worker) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == 8 and all(r is results[0] for r in results)
            assert sum(store.catalog_refreshes.values()) == refreshes + 1, kind
            store.add_triples([(1, store.predicates()[0], 1)])  # next: delta
        assert results[0] == build_catalog(store)


class TestRecoveryUsesTheStoredCatalog:
    def test_replayed_batches_are_patched_not_rebuilt(self, tmp_path, monkeypatch):
        from repro.service.query_service import QueryService
        from repro.storage import load_snapshot_catalog, save_snapshot

        store = TripleStore()
        store.add_term_triples(
            [(f"n{i}", f"p{i % 3}", f"n{i + 1}") for i in range(40)]
        )
        path = tmp_path / "snap"
        save_snapshot(store, path)
        with QueryService.from_snapshot(path, wal=True, max_workers=1) as svc:
            svc.store.add_term_triples([("n1", "p0", "n9"), ("x", "fresh", "y")])
            svc.store.remove_term_triple("n0", "p0", "n1")
        # Reopen: the log replays three changes over the snapshot.
        forbid_full_builds(monkeypatch)
        with QueryService.from_snapshot(path, wal=True, max_workers=1) as svc:
            recovered = svc.engine.catalog
            assert svc.store.catalog_refreshes == {"full": 0, "delta": 1}
            manifest = svc.compact()  # persists the patched memo, too
            monkeypatch.undo()
            assert recovered == build_catalog(svc.store)
            assert manifest["has_catalog"]
            assert load_snapshot_catalog(path) == recovered


def test_the_guard_trips_when_a_build_does_happen(monkeypatch):
    """The tests above prove nothing unless the patched name is the one
    ``catalog()`` calls: a store without a memo must trip it."""
    store = TripleStore()
    store.add_triples([(1, 100, 2), (2, 101, 2)])
    forbid_full_builds(monkeypatch)
    with pytest.raises(AssertionError, match="full build_catalog"):
        store.catalog()
