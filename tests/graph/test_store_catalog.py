"""Store epoch tracking and the memoized catalog accessor."""

from repro.baselines import HashJoinEngine
from repro.core.engine import WireframeEngine
from repro.graph.builder import GraphBuilder
from repro.graph.store import TripleStore
from repro.stats.catalog import Catalog, build_catalog


def small_store(freeze: bool = False) -> TripleStore:
    return (
        GraphBuilder()
        .edge("a", "knows", "b")
        .edge("b", "knows", "c")
        .edge("a", "likes", "c")
        .build(freeze=freeze)
    )


class TestEpoch:
    def test_starts_at_zero(self):
        assert TripleStore().epoch == 0

    def test_bumps_per_new_triple(self):
        store = small_store()
        assert store.epoch == 3
        store.add_term_triple("c", "knows", "d")
        assert store.epoch == 4

    def test_duplicate_insert_does_not_bump(self):
        store = small_store()
        before = store.epoch
        store.add_term_triple("a", "knows", "b")
        assert store.epoch == before

    def test_freeze_preserves_epoch(self):
        store = small_store()
        before = store.epoch
        store.freeze()
        assert store.epoch == before


class TestMemoizedCatalog:
    def test_same_object_until_mutation(self):
        store = small_store()
        assert store.catalog() is store.catalog()

    def test_refreshed_after_mutation(self):
        store = small_store()
        first = store.catalog()
        store.add_term_triple("c", "likes", "d")
        second = store.catalog()
        assert second is not first
        assert second.num_triples == first.num_triples + 1
        # Patched from the one changed triple (tests/graph/
        # test_catalog_delta.py), and indistinguishable from a rebuild.
        assert second == build_catalog(store)
        assert store.catalog_refreshes == {"full": 1, "delta": 1}

    def test_predicate_epochs_sum_to_the_epoch(self):
        store = small_store()
        ids = {p: store.predicate_epoch(p) for p in store.predicates()}
        assert sorted(ids.values()) == [1, 2]
        assert sum(ids.values()) == store.epoch

    def test_matches_explicit_build(self):
        store = small_store(freeze=True)
        assert store.catalog() == build_catalog(store)

    def test_engines_share_one_catalog(self):
        store = small_store(freeze=True)
        wf1 = WireframeEngine(store)
        wf2 = WireframeEngine(store)
        pg = HashJoinEngine(store)
        assert wf1.catalog is wf2.catalog
        assert wf1.catalog is pg.catalog
        assert wf1.catalog is store.catalog()

    def test_explicit_catalog_wins(self):
        store = small_store(freeze=True)
        explicit = build_catalog(store)
        engine = WireframeEngine(store, explicit)
        assert engine.catalog is explicit


class TestFrozenCatalog:
    def test_catalog_is_hashable_by_content(self):
        store = small_store(freeze=True)
        a = build_catalog(store)
        b = build_catalog(store)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_different_stores_differ(self):
        a = build_catalog(small_store())
        b = build_catalog(GraphBuilder().edge("x", "y", "z").build())
        assert a != b

    def test_attributes_cannot_be_rebound(self):
        import pytest

        catalog = build_catalog(small_store())
        with pytest.raises(AttributeError):
            catalog.num_triples = 99

    def test_roundtrips_through_dict(self):
        catalog = build_catalog(small_store())
        assert Catalog.from_dict(catalog.to_dict()) == catalog
