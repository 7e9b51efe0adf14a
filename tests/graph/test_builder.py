"""Tests for GraphBuilder / store_from_edges."""

from repro.graph.builder import GraphBuilder, store_from_edges


def test_chained_edges():
    store = GraphBuilder().edge("1", "A", "2").edge("2", "B", "3").build()
    assert store.num_triples == 2
    a = store.dictionary.lookup("A")
    one, two = store.dictionary.lookup("1"), store.dictionary.lookup("2")
    assert store.successors(a, one) == {two}


def test_edges_bulk_one_label():
    store = GraphBuilder().edges("A", [("1", "2"), ("1", "3")]).build()
    a, one = store.dictionary.lookup("A"), store.dictionary.lookup("1")
    assert len(store.successors(a, one)) == 2


def test_triples_bulk():
    store = GraphBuilder().triples([("x", "p", "y"), ("y", "q", "z")]).build()
    assert store.num_triples == 2


def test_build_freeze():
    store = GraphBuilder().edge("1", "A", "2").build(freeze=True)
    assert store.frozen


def test_store_from_edges_counts():
    store = store_from_edges({"A": [("1", "2")], "B": [("2", "3"), ("2", "4")]})
    b = store.dictionary.lookup("B")
    assert store.count(b) == 2
    assert store.num_triples == 3


def test_store_from_edges_duplicates_collapse():
    store = store_from_edges({"A": [("1", "2"), ("1", "2")]})
    assert store.num_triples == 1
