"""Property-based tests for the graph substrate and parser."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.dictionary import Dictionary
from repro.graph.ntriples import escape_literal, unescape_literal
from repro.graph.triples import TriplePattern

from tests.properties.strategies import build_store, edge_lists

SETTINGS = settings(max_examples=80, deadline=None)


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


@SETTINGS
@given(graph=edge_lists())
def test_store_match_agrees_with_scan(graph):
    store = build_store(graph)
    all_triples = list(store.triples())
    assert store.num_triples == len(all_triples)
    for pattern in (
        TriplePattern(None, None, None),
        TriplePattern(all_triples[0].s if all_triples else 0, None, None),
        TriplePattern(None, all_triples[0].p if all_triples else 0, None),
        TriplePattern(None, None, all_triples[0].o if all_triples else 0),
    ):
        expected = sorted(t for t in all_triples if pattern.matches(t))
        assert sorted(store.match(pattern)) == expected
        assert store.count_matches(pattern) == len(expected)


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
                store.in_degree(p1, node) * store.out_degree(p2, node)
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
