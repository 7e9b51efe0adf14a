"""Tests for the triple store: predicate-first and node-first reads."""

import pytest

from repro.errors import StoreError
from repro.graph.store import TripleStore
from repro.graph.triples import Triple


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
    assert set(store.subject_set(knows)) == set(ids(store, "a", "b"))
    assert set(store.object_set(knows)) == set(ids(store, "b", "c"))
    assert store.count(knows) == 3
    assert store.count(likes) == 2
    assert store.count(999) == 0


def test_degrees(store):
    a, knows, _ = ids(store, "a", "knows", "b")
    c = store.dictionary.lookup("c")
    assert len(store.successors(knows, a)) == 2
    assert len(store.predecessors(knows, c)) == 2


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


def edge_count(view) -> int:
    """Edges in a node-first ``predicate -> nodes`` view."""
    return sum(map(len, view.values()))


def test_match_by_predicate(store):
    knows = store.dictionary.lookup("knows")
    assert store.count(knows) == len(list(store.edges(knows))) == 3


def test_match_by_subject_uses_lazy_spo(store):
    a = store.dictionary.lookup("a")
    assert edge_count(store.out_edges(a)) == 3  # knows b, knows c, likes c


def test_match_by_object_uses_lazy_ops(store):
    c = store.dictionary.lookup("c")
    assert edge_count(store.in_edges(c)) == 3


def test_match_fully_bound(store):
    a, knows, b = ids(store, "a", "knows", "b")
    assert (a, knows, b) in store
    assert (b, knows, a) not in store
    assert store.labels_between(a, b) == [knows]
    assert store.labels_between(b, a) == []


def test_match_wildcard_counts(store):
    assert len(list(store.triples())) == store.num_triples == 5


def test_lazy_index_stays_consistent_after_insert(store):
    a = store.dictionary.lookup("a")
    # Build SPO on the first read, then insert more and re-read.
    assert edge_count(store.out_edges(a)) == 3
    store.add_term_triple("a", "admires", "d")
    assert edge_count(store.out_edges(a)) == 4
    d = store.dictionary.lookup("d")
    assert store.in_edges(d) == {store.dictionary.lookup("admires"): {a}}


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


def test_forward_backward_index_views(store):
    knows = store.dictionary.lookup("knows")
    a, b, c = (store.dictionary.lookup(t) for t in "abc")
    assert store.adjacency(knows)[a] == {b, c}
    assert store.reverse_adjacency(knows)[c] == {a, b}
    assert store.adjacency(12345) == {}


def test_repr(store):
    text = repr(store)
    assert "5 triples" in text and "2 predicates" in text
