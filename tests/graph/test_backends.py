"""Unit tests for the storage-backend layer.

Covers the registry (env selection, explicit instances, unknown
names), the galloping/merge intersection edge cases the columnar
kernel views rely on, the set/mapping duck typing of
:class:`SortedRun` / :class:`ColumnarAdjacency`, and the columnar
staging/seal lifecycle (duplicate detection across sealed and staged
triples, re-sealing after interleaved writes, index_bytes accounting).
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest

from repro.errors import StoreError
from repro.graph.backends import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    ColumnarBackend,
    HashDictBackend,
    available_backends,
    create_backend,
    default_backend_name,
    register_backend,
)
from repro.graph.backends.columnar import (
    ColumnarAdjacency,
    SortedRun,
    intersect_sorted,
)
from repro.graph.store import TripleStore


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_available_backends():
    assert available_backends() == ["columnar", "hashdict"]


def test_create_backend_by_name():
    assert isinstance(create_backend("hashdict"), HashDictBackend)
    assert isinstance(create_backend("columnar"), ColumnarBackend)


def test_create_backend_unknown_name():
    with pytest.raises(StoreError, match="unknown storage backend"):
        create_backend("parquet")


def test_env_var_selects_default(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    assert default_backend_name() == DEFAULT_BACKEND == "columnar"
    monkeypatch.setenv(BACKEND_ENV_VAR, "hashdict")
    assert default_backend_name() == "hashdict"
    assert TripleStore().backend_name == "hashdict"


def test_explicit_backend_beats_env(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "columnar")
    assert TripleStore(backend="hashdict").backend_name == "hashdict"


def test_backend_instance_accepted():
    backend = ColumnarBackend()
    store = TripleStore(backend=backend)
    assert store.backend is backend
    assert store.backend_name == "columnar"


def test_register_backend_requires_name():
    class Nameless(HashDictBackend):
        name = "?"

    with pytest.raises(StoreError):
        register_backend(Nameless)


# ----------------------------------------------------------------------
# Galloping / merge intersection
# ----------------------------------------------------------------------


def run(*values: int) -> SortedRun:
    arr = array("q", values)
    return SortedRun(arr, 0, len(arr))


def isect(a: SortedRun, b: SortedRun) -> list[int]:
    return intersect_sorted(a._arr, a._lo, a._hi, b._arr, b._lo, b._hi)


def test_intersect_empty_runs():
    assert isect(run(), run()) == []
    assert isect(run(1, 2, 3), run()) == []
    assert isect(run(), run(1, 2, 3)) == []


def test_intersect_singleton_runs():
    assert isect(run(5), run(5)) == [5]
    assert isect(run(5), run(6)) == []
    assert isect(run(5), run(1, 3, 5, 7)) == [5]
    assert isect(run(1, 3, 5, 7), run(7)) == [7]


def test_intersect_disjoint_ranges():
    assert isect(run(1, 2, 3), run(10, 20, 30)) == []
    assert isect(run(10, 20, 30), run(1, 2, 3)) == []
    # Interleaved but still disjoint.
    assert isect(run(1, 3, 5), run(2, 4, 6)) == []


def test_intersect_merge_path():
    # Similar sizes: the linear merge branch.
    assert isect(run(1, 2, 4, 8, 9), run(2, 3, 4, 9, 12)) == [2, 4, 9]


def test_intersect_galloping_path():
    # One side far larger than GALLOP_RATIO times the other: the
    # galloping branch, probing the large run by bisection.
    big = run(*range(0, 2000, 2))
    assert isect(run(4, 999, 1000, 1998), big) == [4, 1000, 1998]
    assert isect(big, run(4, 999, 1000, 1998)) == [4, 1000, 1998]


def test_intersect_identical_and_subset():
    assert isect(run(1, 2, 3), run(1, 2, 3)) == [1, 2, 3]
    assert isect(run(2, 3), run(1, 2, 3, 4)) == [2, 3]


def test_intersect_negative_ids():
    # array('q') is signed; dictionary ids are non-negative today, but
    # the intersection itself must not assume that.
    assert isect(run(-5, -1, 3), run(-5, 0, 3)) == [-5, 3]


# ----------------------------------------------------------------------
# SortedRun set semantics
# ----------------------------------------------------------------------


def test_sorted_run_is_set_like():
    r = run(1, 3, 5)
    assert len(r) == 3
    assert list(r) == [1, 3, 5]
    assert 3 in r and 2 not in r
    assert r == {1, 3, 5}
    assert r != {1, 3}
    assert {1, 3, 5} == r
    assert r == run(1, 3, 5)
    assert r != run(1, 3)


def test_sorted_run_intersection_with_sets_and_views():
    r = run(1, 3, 5, 7)
    assert r & {3, 7, 9} == {3, 7}
    assert {3, 7, 9} & r == {3, 7}
    assert r & run(5, 7, 11) == {5, 7}
    d = {3: None, 5: None, 99: None}
    assert r & d.keys() == {3, 5}
    assert isinstance(r & run(5, 7), set)


def test_sorted_run_other_set_algebra_yields_plain_sets():
    r = run(1, 3, 5)
    assert r | {2} == {1, 2, 3, 5}
    assert r - {3} == {1, 5}
    assert isinstance(r | {2}, set)
    assert set(r) == {1, 3, 5}


def test_sorted_run_isdisjoint():
    assert run(1, 2).isdisjoint(run(3, 4))
    assert run(3, 4).isdisjoint(run(1, 2))
    assert not run(1, 2, 3).isdisjoint(run(3, 4))
    assert run().isdisjoint(run(1))
    assert run(1, 2).isdisjoint({5, 6})
    assert not run(1, 2).isdisjoint({2})
    # Any iterable, as ``set.isdisjoint`` takes: also one without a length.
    assert run(1, 2).isdisjoint(x for x in (5, 6))
    assert not run(1, 2).isdisjoint(iter([7, 2]))
    # Long runs take the vectorized intersection.
    assert run(*range(0, 100, 2)).isdisjoint(run(*range(1, 101, 2)))
    assert not run(*range(0, 100, 2)).isdisjoint(run(*range(1, 99, 2), 98))


def test_sorted_run_long_intersection_matches_merge():
    # Above VECTOR_RUN on the smaller side: one searchsorted, not a merge.
    evens, threes = run(*range(0, 600, 2)), run(*range(0, 90, 3))
    assert evens & threes == threes & evens == set(range(0, 90, 6))
    assert sorted(evens & threes) == isect(evens, threes)
    assert run(*range(50)) & run(*range(100, 150)) == set()


def test_sorted_run_subset_of_run():
    """``<=`` between runs (what look-ahead asks of a predicate's far
    nodes and a view) agrees with plain sets, short and long, with the
    missing element first, last and absent."""
    whole = run(*range(0, 1000, 2))
    assert run() <= run() and run() <= whole and not run(2) <= run()
    assert run(4, 8) <= whole and not run(4, 9) <= whole
    assert whole <= whole and not whole <= run(*range(0, 998, 2))
    assert not run(-2, *range(0, 600, 2)) <= whole  # below the range
    assert not run(*range(0, 600, 2), 1001) <= whole  # above it
    assert not run(*range(0, 600, 2), 601) <= whole  # a late miss inside
    assert not run(1, *range(2, 600, 2)) <= whole  # an early one
    assert run(*range(0, 600, 2)) <= whole
    assert run(2, 4) <= {2, 4, 6} and not run(2, 5) <= {2, 4, 6}


# ----------------------------------------------------------------------
# ColumnarAdjacency mapping semantics
# ----------------------------------------------------------------------


def make_adjacency() -> ColumnarAdjacency:
    # {1: {10, 11}, 5: {20}, 9: {30, 31, 32}}
    keys = array("q", (1, 5, 9))
    offs = array("q", (0, 2, 3, 6))
    vals = array("q", (10, 11, 20, 30, 31, 32))
    return ColumnarAdjacency(keys, offs, vals)


def test_adjacency_mapping_protocol():
    adj = make_adjacency()
    assert len(adj) == 3
    assert list(adj) == [1, 5, 9]
    assert 5 in adj and 2 not in adj
    assert adj[1] == {10, 11}
    assert adj[9] == {30, 31, 32}
    with pytest.raises(KeyError):
        adj[2]
    assert adj.get(5) == {20}
    assert adj.get(2) is None
    assert adj.get(2, 7) == 7


def test_adjacency_views():
    adj = make_adjacency()
    assert set(adj.keys()) == {1, 5, 9}
    assert adj.keys() == {1, 5, 9}
    assert [(k, set(v)) for k, v in adj.items()] == [
        (1, {10, 11}),
        (5, {20}),
        (9, {30, 31, 32}),
    ]
    assert sum(map(len, adj.values())) == 6
    assert len(adj.items()) == 3


def test_adjacency_equality_with_dict():
    adj = make_adjacency()
    assert adj == {1: {10, 11}, 5: {20}, 9: {30, 31, 32}}
    assert adj != {1: {10, 11}, 5: {20}}
    assert adj != {1: {10, 11}, 5: {20}, 9: {30}}
    assert adj == make_adjacency()


# ----------------------------------------------------------------------
# Columnar staging / sealing lifecycle
# ----------------------------------------------------------------------


@pytest.fixture
def columnar_store() -> TripleStore:
    store = TripleStore(backend="columnar")
    store.add_term_triples(
        [
            ("a", "knows", "b"),
            ("a", "knows", "c"),
            ("b", "knows", "c"),
            ("a", "likes", "c"),
        ]
    )
    return store


def test_duplicate_detection_staged_and_sealed(columnar_store):
    store = columnar_store
    a, knows, b = (store.dictionary.lookup(t) for t in ("a", "knows", "b"))
    # Still staged: duplicate rejected from the staging dicts.
    assert store.add(a, knows, b) is False
    # Force a seal, then insert the duplicate again: rejected via
    # binary search in the sealed run.
    assert store.successors(knows, a) == {b, store.dictionary.lookup("c")}
    assert store.add(a, knows, b) is False
    assert store.num_triples == 4
    assert store.epoch == 4


def test_add_after_seal_reseals(columnar_store):
    store = columnar_store
    knows = store.dictionary.lookup("knows")
    a = store.dictionary.lookup("a")
    assert len(store.successors(knows, a)) == 2  # seals "knows"
    store.add_term_triple("a", "knows", "d")
    d = store.dictionary.lookup("d")
    assert store.successors(knows, a) == {
        store.dictionary.lookup("b"),
        store.dictionary.lookup("c"),
        d,
    }
    assert store.predecessors(knows, d) == {a}
    assert store.count(knows) == 4
    assert store.epoch == 5


def test_freeze_seals_everything(columnar_store):
    store = columnar_store
    store.freeze()
    backend = store.backend
    assert not backend._staged  # all runs sealed
    assert store.num_triples == 4
    knows = store.dictionary.lookup("knows")
    assert store.count(knows) == 3


def test_columnar_index_bytes_smaller_than_hashdict():
    edges = [
        (f"s{i % 37}", f"p{i % 3}", f"o{i % 101}") for i in range(3000)
    ]
    hashdict = TripleStore(backend="hashdict")
    hashdict.add_term_triples(edges)
    hashdict.freeze()
    columnar = TripleStore(backend="columnar")
    columnar.add_term_triples(edges)
    columnar.freeze()
    assert columnar.num_triples == hashdict.num_triples
    assert columnar.index_bytes() < hashdict.index_bytes() * 0.7


def test_empty_predicate_views(columnar_store):
    store = columnar_store
    assert store.successors(999, 1) == set()
    assert store.adjacency(999) == {}
    assert store.gather(999, {1, 2}) == ({}, 0)
    assert store.gather(999, None, [{1}], reverse=True) == ({}, 0)
    assert store.count(999) == 0
    assert list(store.edges(999)) == []


@pytest.mark.parametrize("backend", ("hashdict", "columnar"))
def test_degree_columns(backend):
    """Keys and degrees in matching order, ``int64``, staged writes
    included, and empty for an unknown or emptied predicate."""
    store = TripleStore(backend=backend)
    store.add_triples([(1, 100, 2), (1, 100, 3), (4, 100, 3), (4, 101, 4)])
    store.count(100)  # columnar: seal 100, then stage one more pair
    store.add_triples([(5, 100, 3)])
    keys, degrees = store.degree_columns(100)
    assert keys.dtype == degrees.dtype == np.int64
    assert sorted(zip(keys.tolist(), degrees.tolist())) == [(1, 2), (4, 1), (5, 1)]
    keys, degrees = store.degree_columns(100, reverse=True)
    assert sorted(zip(keys.tolist(), degrees.tolist())) == [(2, 1), (3, 3)]
    store.remove_triples([(4, 101, 4)])
    for p in (101, 999):
        for reverse in (False, True):
            keys, degrees = store.degree_columns(p, reverse)
            assert len(keys) == len(degrees) == 0
    if backend == "columnar":  # the sealed key column, ascending
        keys, _ = store.degree_columns(100)
        assert keys.tolist() == [1, 4, 5]


@pytest.mark.parametrize("backend", ("hashdict", "columnar"))
def test_gather_polls_the_deadline_before_it_copies(backend):
    """A label scan and a 10k-candidate step under an expired deadline
    raise from ``gather`` itself, before any adjacency exists."""
    from repro.errors import EvaluationTimeout
    from repro.utils.deadline import Deadline

    store = TripleStore(backend=backend)
    store.add_term_triples((f"s{i}", "p", f"o{i % 97}") for i in range(10_000))
    store.freeze()
    p = store.dictionary.lookup("p")
    subjects = set(store.subject_set(p))
    assert len(subjects) == 10_000
    for nodes in (None, subjects):
        expired = Deadline(1e-9, stride=64)
        with pytest.raises(EvaluationTimeout) as caught:
            store.gather(p, nodes, deadline=expired)
        assert caught.traceback[-2].name == "gather"  # then check_every
    adj, walks = store.gather(p, subjects, deadline=Deadline(60))
    assert walks == 10_000 and adj.keys() == subjects


def test_columnar_gather_popular_nodes_keep_the_scalar_path():
    """Buckets that dwarf a filter are probed run by run, not copied:
    same adjacency, same walks as the copy would give."""
    store = TripleStore(backend="columnar")
    store.add_term_triples(
        (f"hub{h}", "p", f"leaf{i}") for h in range(8) for i in range(400)
    )
    store.freeze()
    lookup = store.dictionary.lookup
    p = lookup("p")
    hubs = {lookup(f"hub{h}") for h in range(8)}
    wanted = {lookup("leaf7"), lookup("leaf399"), 10**9}
    adj, walks = store.gather(p, hubs, [wanted])
    assert walks == 3200
    assert adj == {hub: wanted - {10**9} for hub in hubs}
    back, walks = store.gather(p, wanted, [hubs], reverse=True)
    assert walks == 16 and back == {leaf: hubs for leaf in wanted - {10**9}}


def test_unknown_permutation_rejected_by_backend():
    backend = ColumnarBackend()
    with pytest.raises(StoreError):
        backend.get_permutation("pos")


# ----------------------------------------------------------------------
# Lifecycle: stores must be reclaimable by refcounting alone
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ("hashdict", "columnar"))
def test_store_freed_without_cyclic_gc(backend):
    """No backend <-> helper reference cycles: a dropped store's backend
    is reclaimed immediately by refcounting, without the gen-2 GC.
    (A cycle here makes every discarded store cyclic garbage, and a
    long benchmark session then stalls on one giant collection.)"""
    import gc
    import weakref

    gc.disable()
    try:
        store = TripleStore(backend=backend)
        store.add_term_triples(
            [("a", "knows", "b"), ("b", "knows", "c")]
        )
        store.materialize_all_indexes()  # exercise the lazy-build path
        assert len(list(store.triples())) == 2
        ref = weakref.ref(store.backend)
        del store
        assert ref() is None, "backend kept alive by a reference cycle"
    finally:
        gc.enable()
