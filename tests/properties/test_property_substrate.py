"""Property-based tests for the graph substrate and parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.backends import available_backends
from repro.graph.dictionary import Dictionary
from repro.graph.ntriples import escape_literal, unescape_literal
from repro.graph.store import TripleStore

from tests.properties.strategies import build_store, edge_lists

SETTINGS = settings(max_examples=80, deadline=None)

#: Raw ids: nodes 0..5 (6 is never stored) and predicates 100..102, so
#: random removals often hit and nodes lose their last edges.
NODES = range(7)
TRIPLE = st.tuples(
    st.integers(0, 5), st.integers(100, 102), st.integers(0, 5)
)
STEPS = st.lists(
    st.tuples(st.booleans(), st.lists(TRIPLE, min_size=1, max_size=8)),
    max_size=10,
)


@SETTINGS
@given(terms=st.lists(st.text(min_size=0, max_size=12), unique=True))
def test_dictionary_roundtrip(terms):
    d = Dictionary()
    ids = d.encode_many(terms)
    assert d.decode_many(ids) == terms
    assert ids == [d.encode(t) for t in terms]  # idempotent
    assert len(set(ids)) == len(terms)


@SETTINGS
@given(value=st.text(max_size=40))
def test_literal_escape_roundtrip(value):
    assert unescape_literal(escape_literal(value)) == value


@SETTINGS
@given(graph=edge_lists())
def test_store_index_consistency(graph):
    """Forward and backward indexes describe the same edge set."""
    store = build_store(graph)
    for p in store.predicates():
        fwd_edges = {(s, o) for s, objs in store.adjacency(p).items()
                     for o in objs}
        bwd_edges = {(s, o) for o, subs in store.reverse_adjacency(p).items()
                     for s in subs}
        assert fwd_edges == bwd_edges
        assert store.count(p) == len(fwd_edges)
        assert set(store.edges(p)) == fwd_edges


def assert_node_first_views(store: TripleStore, model: set) -> None:
    """``out_edges``, ``in_edges`` and ``labels_between`` of every node
    equal a brute-force filter of ``triples()``, which equals ``model``.
    A node's entries hold no empty label: a removal prunes them."""
    triples = set(store.triples())
    assert triples == model
    for n in NODES:
        out: dict[int, set[int]] = {}
        into: dict[int, set[int]] = {}
        for s, p, o in triples:
            if s == n:
                out.setdefault(p, set()).add(o)
            if o == n:
                into.setdefault(p, set()).add(s)
        assert {p: set(objs) for p, objs in store.out_edges(n).items()} == out
        assert {p: set(subs) for p, subs in store.in_edges(n).items()} == into
        for o in NODES:
            assert sorted(store.labels_between(n, o)) == sorted(
                p for s, p, x in triples if s == n and x == o
            )


@pytest.mark.parametrize("index", ("patched", "fresh"))
@pytest.mark.parametrize("backend", available_backends())
@SETTINGS
@given(initial=st.lists(TRIPLE, max_size=20), steps=STEPS)
def test_node_first_views_agree_with_scan(backend, index, initial, steps):
    """After interleaved add/remove batches, the lazily built node-first
    views answer what a scan does: built by a read before the writes and
    patched by each of them, or built fresh by a read after all of them."""
    store = TripleStore(backend=backend)
    store.add_triples(initial)
    model = set(initial)
    if index == "patched":
        assert_node_first_views(store, model)
    for add, batch in steps:
        if add:
            store.add_triples(batch)
            model.update(batch)
        else:
            store.remove_triples(batch)
            model.difference_update(batch)
        if index == "patched":
            assert_node_first_views(store, model)
    assert_node_first_views(store, model)


@SETTINGS
@given(graph=edge_lists())
def test_catalog_bigram_os_is_exact_join_size(graph):
    """The os 2-gram equals the true two-edge join cardinality."""
    from repro.stats.catalog import build_catalog

    store = build_store(graph)
    catalog = build_catalog(store)
    preds = store.predicates()
    for p1 in preds:
        for p2 in preds:
            true_join = sum(
                len(store.predecessors(p1, node)) * len(store.successors(p2, node))
                for node in store.nodes()
            )
            assert catalog.bigram(p1, p2, "os").join_pairs == true_join


@SETTINGS
@given(
    names=st.lists(
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=122),
            min_size=1,
            max_size=6,
        ),
        min_size=2,
        max_size=4,
        unique=True,
    ).filter(lambda ns: "a" not in ns)  # bare `a` is SPARQL's rdf:type
)
def test_parser_roundtrip_on_generated_chains(names):
    from repro.query.model import ConjunctiveQuery
    from repro.query.parser import parse_sparql

    edges = [
        (f"?v{i}", name, f"?v{i + 1}") for i, name in enumerate(names)
    ]
    query = ConjunctiveQuery(edges, distinct=True)
    assert parse_sparql(query.to_sparql()) == query
