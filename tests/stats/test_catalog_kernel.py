"""The vectorized catalog build against the per-node reference.

``build_catalog`` must equal :func:`catalog_reference.reference_catalog`
on any store, on every backend, sampled or not, and at any bounds: small
``CHUNK_PAIRS`` values split the pair expansion into many chunks, small
``DENSE_CELLS`` values the label space into many accumulator blocks.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.stats.catalog as catalog_module
from repro.graph.backends import available_backends
from repro.graph.store import TripleStore
from repro.stats.catalog import bigram_sums, build_catalog

from tests.stats.catalog_reference import add_node, reference_catalog

SETTINGS = settings(max_examples=80, deadline=None)

#: Raw ids: nodes 0..7 and predicates 3..9 overlap, and s == o happens.
NODE = st.integers(min_value=0, max_value=7)
PRED = st.integers(min_value=3, max_value=9)
TRIPLES = st.lists(st.tuples(NODE, PRED, NODE), max_size=40)
BOUNDS = st.tuples(
    st.sampled_from((1, 2, 3, 7, 50, catalog_module.CHUNK_PAIRS)),
    st.sampled_from((1, 20, 60, catalog_module.DENSE_CELLS)),
)


def bounded(bounds):
    chunk, cells = bounds
    return mock.patch.multiple(catalog_module, CHUNK_PAIRS=chunk, DENSE_CELLS=cells)


def build(triples, backend, emptied=None) -> TripleStore:
    store = TripleStore(backend=backend)
    store.add_triples(triples)
    if emptied is not None:  # a predicate that had triples and lost them all
        store.add_triples([(0, emptied, 1), (1, emptied, 1)])
        store.count(emptied)  # columnar: seal it first
        store.remove_triples([(0, emptied, 1), (1, emptied, 1)])
    return store


def assert_same(built, expected):
    assert built == expected
    assert built.sampled == expected.sampled
    assert list(built.bigrams) == sorted(built.bigrams)
    assert list(built.unigrams) == sorted(built.unigrams)


@SETTINGS
@given(
    triples=TRIPLES,
    backend=st.sampled_from(available_backends()),
    emptied=st.one_of(st.none(), st.integers(min_value=3, max_value=11)),
    bounds=BOUNDS,
    data=st.data(),
)
def test_build_equals_reference(triples, backend, emptied, bounds, data):
    store = build(triples, backend, emptied)
    with bounded(bounds):
        assert_same(build_catalog(store), reference_catalog(store))
        if store.num_nodes > 1:
            k = data.draw(st.integers(1, store.num_nodes - 1), label="sample")
            seed = data.draw(st.integers(0, 3), label="seed")
            assert_same(
                build_catalog(store, sample_nodes=k, seed=seed),
                reference_catalog(store, sample_nodes=k, seed=seed),
            )


@pytest.mark.parametrize("backend", available_backends())
def test_empty_store(backend):
    store = TripleStore(backend=backend)
    assert_same(build_catalog(store), reference_catalog(store))
    assert build_catalog(store).bigrams == {}


@pytest.mark.parametrize("backend", available_backends())
def test_patched_bigrams_stay_in_key_order(backend):
    store = TripleStore(backend=backend)
    store.add_triples([(1, 5, 2), (2, 5, 3)])
    store.catalog()
    store.add_triples([(2, 3, 1), (3, 9, 4), (4, 4, 4)])
    patched = store.catalog()
    assert store.catalog_refreshes == {"full": 1, "delta": 1}
    assert_same(patched, reference_catalog(store))


@pytest.mark.parametrize("backend", available_backends())
def test_ids_outside_the_sort_keys_range(backend):
    # Too large for the sort key, which would wrap big + 1 onto 1 (and
    # big onto 0), or negative: the kernel renumbers the nodes.
    big = 1 << 61
    store = TripleStore(backend=backend)
    store.add_triples(
        [(big + 1, 3, big), (big, 4, big + 1), (big + 1, 4, 1), (1, 3, 0), (-2, 3, -2)]
    )
    assert_same(build_catalog(store), reference_catalog(store))


@SETTINGS
@given(
    vectors=st.lists(
        st.tuples(
            NODE,
            st.sampled_from((-1, 1)),
            st.dictionaries(PRED, st.integers(1, 5), max_size=4),
            st.dictionaries(PRED, st.integers(1, 5), max_size=4),
        ),
        max_size=8,
        unique_by=lambda v: v[:2],
    ),
    bounds=BOUNDS,
)
def test_signed_vectors_sum_like_the_reference(vectors, bounds):
    """A node's vectors of opposite sign never pair: each is summed as
    its own node, the way the delta patch feeds old and new vectors."""
    expected: dict = {}
    outs, ins = [], []
    for node, sign, out_vec, in_vec in vectors:
        add_node(expected, out_vec, in_vec, sign)
        outs.extend((node, p, d, sign) for p, d in out_vec.items())
        ins.extend((node, p, d, sign) for p, d in in_vec.items())

    def columns(rows):
        table = np.array(rows, np.int64).reshape(-1, 4)
        return tuple(table[:, i] for i in range(4))

    with bounded(bounds):
        sums = bigram_sums(columns(outs), columns(ins))
    assert sums == {k: tuple(v) for k, v in expected.items() if any(v)}
    assert list(sums) == sorted(sums)
