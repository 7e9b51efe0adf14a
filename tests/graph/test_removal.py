"""Triple removal: backend semantics + the TripleStore facade.

Removal landed with the WAL write path (journaled batches may carry
removes), so both shipped backends must delete from every index they
maintain — forward/reverse adjacency, lazy permutations, the node set —
and keep the epoch ticking so plan/result caches invalidate.
"""

import pytest

from repro.errors import StoreError
from repro.graph.backends import available_backends
from repro.graph.store import TripleStore

BACKENDS = available_backends()

EDGES = [
    ("alice", "knows", "bob"),
    ("bob", "knows", "carol"),
    ("carol", "knows", "alice"),
    ("alice", "likes", "carol"),
]


@pytest.fixture(params=BACKENDS)
def store(request):
    s = TripleStore(backend=request.param)
    s.add_term_triples(EDGES)
    return s


def ids(store, *terms):
    return tuple(store.dictionary.lookup(t) for t in terms)


def term_triples(store):
    decode = store.dictionary.decode
    return {tuple(decode(v) for v in t) for t in store.triples()}


def test_remove_deletes_exactly_one_triple(store):
    a, k, b = ids(store, "alice", "knows", "bob")
    assert store.remove(a, k, b)
    assert len(store) == len(EDGES) - 1
    assert (a, k, b) not in store
    assert term_triples(store) == set(EDGES) - {("alice", "knows", "bob")}
    # Removing it again is a no-op reported as such.
    assert not store.remove(a, k, b)
    assert len(store) == len(EDGES) - 1


def test_remove_ticks_the_epoch_only_when_something_went(store):
    a, k, b = ids(store, "alice", "knows", "bob")
    before = store.epoch
    assert store.remove(a, k, b)
    assert store.epoch == before + 1
    assert not store.remove(a, k, b)
    assert store.epoch == before + 1


def test_adjacency_views_shrink(store):
    a, k, b = ids(store, "alice", "knows", "bob")
    assert b in store.successors(k, a)
    assert store.remove(a, k, b)
    assert b not in store.successors(k, a)
    assert a not in store.predecessors(k, b)
    assert store.count(k) == 2
    assert a not in store.subject_set(k)  # alice has no "knows" edge left


def test_match_consistent_after_removal(store):
    a, k, b = ids(store, "alice", "knows", "bob")
    likes, carol = ids(store, "likes", "carol")
    # Build both lazy node-first indexes first, so removal must update
    # them rather than rebuild from scratch.
    assert store.in_edges(b) == {k: {a}}
    assert store.out_edges(a) == {k: {b}, likes: {carol}}
    assert store.remove(a, k, b)
    assert store.labels_between(a, b) == []
    assert store.out_edges(a) == {likes: {carol}}
    assert store.in_edges(b) == {}
    assert all(s != a for s, _ in store.edges(k))


def test_nodes_rebuilt_after_removal(store):
    a, k, b = ids(store, "alice", "knows", "bob")
    assert b in store.nodes()
    # bob still appears as a subject of its own edge after this one:
    assert store.remove(a, k, b)
    assert b in store.nodes()
    bc = ids(store, "bob", "knows", "carol")
    assert store.remove(*bc)
    assert ids(store, "bob")[0] not in store.nodes()
    assert a in store.nodes()  # alice keeps other edges


def test_remove_triples_bulk_counts_hits_only(store):
    batch = [
        ids(store, "alice", "knows", "bob"),
        ids(store, "bob", "knows", "carol"),
        ids(store, "alice", "knows", "carol"),  # never stored
    ]
    assert store.remove_triples(batch) == 2
    assert len(store) == len(EDGES) - 2
    assert store.remove_triples(batch) == 0


def test_remove_triples_duplicate_pairs_count_once(store):
    t = ids(store, "alice", "knows", "bob")
    assert store.remove_triples([t, t, t]) == 1
    assert len(store) == len(EDGES) - 1
    assert ("alice", "knows", "bob") not in term_triples(store)


@pytest.mark.parametrize("backend", BACKENDS)
def test_remove_duplicates_of_sole_staged_triple(backend):
    # The duplicated pair being the predicate's only staged triple once
    # emptied the columnar staging dict mid-batch and crashed on the
    # next duplicate; it must count once and leave the store consistent.
    store = TripleStore(backend=backend)
    store.add_term_triples(EDGES)
    t = ids(store, "alice", "likes", "carol")
    assert store.remove_triples([t, t]) == 1
    assert len(store) == len(EDGES) - 1
    assert term_triples(store) == {e for e in EDGES if e[1] == "knows"}


@pytest.mark.parametrize("backend", BACKENDS)
def test_remove_duplicates_against_sealed_columns(backend):
    store = TripleStore(backend=backend)
    store.add_term_triples(EDGES)
    k = store.dictionary.lookup("knows")
    assert store.count(k) == 3  # read → seals the columnar groups
    t = ids(store, "alice", "knows", "bob")
    assert store.remove_triples([t, t]) == 1
    assert store.count(k) == 2
    assert len(store) == len(EDGES) - 1


def test_remove_whole_predicate(store):
    k = ids(store, "knows")[0]
    gone = store.remove_triples(
        [t for t in store.triples() if t.p == k]
    )
    assert gone == 3
    assert k not in store.predicates() and store.count(k) == 0
    assert store.predicates() == ids(store, "likes") or store.predicates() == [
        p for p in store.predicates() if store.count(p)
    ]
    assert term_triples(store) == {("alice", "likes", "carol")}


def test_remove_term_triple_never_interns(store):
    terms_before = len(store.dictionary)
    assert not store.remove_term_triple("alice", "knows", "stranger")
    assert len(store.dictionary) == terms_before
    assert store.remove_term_triple("alice", "knows", "bob")
    assert len(store) == len(EDGES) - 1


def test_frozen_store_refuses_removal(store):
    a, k, b = ids(store, "alice", "knows", "bob")
    store.freeze()
    for op in (
        lambda: store.remove(a, k, b),
        lambda: store.remove_triples([(a, k, b)]),
        lambda: store.remove_term_triple("alice", "knows", "bob"),
    ):
        with pytest.raises(StoreError, match="frozen"):
            op()


def test_add_remove_add_roundtrip(store):
    a, k, b = ids(store, "alice", "knows", "bob")
    assert store.remove(a, k, b)
    assert store.add(a, k, b)
    assert (a, k, b) in store
    assert len(store) == len(EDGES)
    assert term_triples(store) == set(EDGES)


@pytest.mark.parametrize("backend", BACKENDS)
def test_interleaved_staged_and_sealed_removal(backend):
    # Sealing (columnar) happens on first read; removes must hit both
    # the staged overlay and the sealed columns.
    store = TripleStore(backend=backend)
    store.add_term_triples(EDGES)
    k = store.dictionary.lookup("knows")
    assert store.count(k) == 3  # read → seals the columnar groups
    store.add_term_triples([("dave", "knows", "alice")])  # staged again
    assert store.remove_term_triple("dave", "knows", "alice")  # staged hit
    assert store.remove_term_triple("alice", "knows", "bob")  # sealed hit
    assert store.count(k) == 2
    decode = store.dictionary.decode
    assert {tuple(decode(v) for v in t) for t in store.triples()} == {
        ("bob", "knows", "carol"),
        ("carol", "knows", "alice"),
        ("alice", "likes", "carol"),
    }

