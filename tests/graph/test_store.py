"""Tests for the triple store and its permutation indexes."""

import pytest

from repro.errors import StoreError
from repro.graph.store import TripleStore
from repro.graph.triples import Triple, TriplePattern


@pytest.fixture
def store():
    s = TripleStore()
    s.add_term_triples(
        [
            ("a", "knows", "b"),
            ("a", "knows", "c"),
            ("b", "knows", "c"),
            ("a", "likes", "c"),
            ("c", "likes", "a"),
        ]
    )
    return s


def ids(store, *terms):
    return tuple(store.dictionary.lookup(t) for t in terms)


def test_sizes(store):
    assert store.num_triples == 5
    assert len(store) == 5
    assert store.num_nodes == 3  # a, b, c (predicates are not nodes)


def test_duplicate_insert_ignored(store):
    a, knows, b = ids(store, "a", "knows", "b")
    assert store.add(a, knows, b) is False
    assert store.num_triples == 5


def test_successors_predecessors(store):
    a, knows, b = ids(store, "a", "knows", "b")
    c = store.dictionary.lookup("c")
    assert store.successors(knows, a) == {b, c}
    assert store.predecessors(knows, c) == {a, b}
    assert store.successors(knows, c) == set()


def test_returned_empty_set_is_shared_but_not_mutated(store):
    knows = store.dictionary.lookup("knows")
    empty = store.successors(knows, 999)
    assert empty == set()


def test_subjects_objects_counts(store):
    knows, likes = (store.dictionary.lookup(p) for p in ("knows", "likes"))
    assert set(store.subjects(knows)) == set(ids(store, "a", "b"))
    assert set(store.objects(knows)) == set(ids(store, "b", "c"))
    assert store.count(knows) == 3
    assert store.count(likes) == 2
    assert store.count(999) == 0


def test_degrees(store):
    a, knows, _ = ids(store, "a", "knows", "b")
    c = store.dictionary.lookup("c")
    assert store.out_degree(knows, a) == 2
    assert store.in_degree(knows, c) == 2


def test_edges_iteration(store):
    knows = store.dictionary.lookup("knows")
    assert len(list(store.edges(knows))) == 3


def test_contains(store):
    a, knows, b = ids(store, "a", "knows", "b")
    assert (a, knows, b) in store
    assert (b, knows, a) not in store


def test_predicates_sorted(store):
    preds = store.predicates()
    assert preds == sorted(preds)
    assert len(preds) == 2


def test_triples_complete(store):
    assert len(list(store.triples())) == 5
    assert all(isinstance(t, Triple) for t in store.triples())


def test_match_by_predicate(store):
    knows = store.dictionary.lookup("knows")
    assert store.count_matches(TriplePattern(None, knows, None)) == 3


def test_match_by_subject_uses_lazy_spo(store):
    a = store.dictionary.lookup("a")
    matches = list(store.match(TriplePattern(a, None, None)))
    assert len(matches) == 3  # knows b, knows c, likes c


def test_match_by_object_uses_lazy_osp(store):
    c = store.dictionary.lookup("c")
    matches = list(store.match(TriplePattern(None, None, c)))
    assert len(matches) == 3


def test_match_fully_bound(store):
    a, knows, b = ids(store, "a", "knows", "b")
    assert list(store.match(TriplePattern(a, knows, b))) == [Triple(a, knows, b)]
    assert list(store.match(TriplePattern(b, knows, a))) == []


def test_match_wildcard_counts(store):
    assert store.count_matches(TriplePattern(None, None, None)) == 5


def test_lazy_index_stays_consistent_after_insert(store):
    a = store.dictionary.lookup("a")
    # Force SPO materialization, then insert more and re-query.
    assert len(list(store.match(TriplePattern(a, None, None)))) == 3
    store.add_term_triple("a", "admires", "d")
    matches = list(store.match(TriplePattern(a, None, None)))
    assert len(matches) == 4


def test_out_edges_in_edges_labels_between(store):
    a, knows, b = ids(store, "a", "knows", "b")
    likes = store.dictionary.lookup("likes")
    c = store.dictionary.lookup("c")
    assert set(store.out_edges(a)) == {knows, likes}
    assert set(store.in_edges(c)) == {knows, likes}
    assert store.labels_between(a, c) == sorted(
        store.labels_between(a, c)
    ) or True  # order unspecified
    assert set(store.labels_between(a, c)) == {knows, likes}
    assert store.labels_between(c, b) == []


def test_freeze_blocks_adds(store):
    store.freeze()
    assert store.frozen
    with pytest.raises(StoreError):
        store.add(0, 1, 2)
    assert store.dictionary.frozen


def test_materialize_all_indexes(store):
    store.materialize_all_indexes()
    a = store.dictionary.lookup("a")
    assert len(list(store.match(TriplePattern(a, None, None)))) == 3


def test_unknown_permutation_rejected(store):
    with pytest.raises(StoreError):
        store.backend.get_permutation("pos")  # a primary, not lazy, index


def test_forward_backward_index_views(store):
    knows = store.dictionary.lookup("knows")
    a, b, c = (store.dictionary.lookup(t) for t in "abc")
    assert store.adjacency(knows)[a] == {b, c}
    assert store.reverse_adjacency(knows)[c] == {a, b}
    assert store.adjacency(12345) == {}


def test_repr(store):
    text = repr(store)
    assert "5 triples" in text and "2 predicates" in text
