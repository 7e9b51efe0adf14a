"""Property-based tests of the answer-graph invariants (§2–§4).

These encode the paper's central claims as universally-quantified
properties over random graphs and random query shapes:

* **Soundness/completeness**: Wireframe's embeddings equal brute force.
* **Ideality (acyclic)**: after node burnback, every AG edge
  participates in at least one embedding — the AG *is* the iAG.
* **Soundness (cyclic)**: the node-burnback AG is a superset of the
  iAG; with edge burnback on treewidth-2 queries it equals the iAG.
* **Factorization bound**: |iAG| never exceeds |embeddings| · |edges|.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import WireframeEngine
from repro.core.ideal import enumerate_embeddings_bruteforce, ideal_answer_graph

from tests.properties.strategies import (
    PHASE2_SHAPES,
    acyclic_queries,
    build_store,
    cyclic_queries,
    edge_lists,
    shaped_queries,
)

SETTINGS = settings(max_examples=60, deadline=None)

#: What factorized aggregation accepts: the acyclic shapes, and the
#: acyclic phase-2 shapes (up to six variables, constants shared or at
#: the ends) with variables perhaps grounded to known or unknown
#: constants and labels perhaps unknown.
FACTORIZED_QUERIES = st.one_of(
    acyclic_queries(),
    shaped_queries(
        tuple(PHASE2_SHAPES[name] for name in (
            "single-edge", "chain", "star", "snowflake", "shared-constant", "constant-endpoints",
        )),
        grounded=True,
    ),
)


@SETTINGS
@given(graph=edge_lists(), query=acyclic_queries())
def test_acyclic_embeddings_match_oracle(graph, query):
    store = build_store(graph)
    result = WireframeEngine(store).evaluate(query)
    oracle = enumerate_embeddings_bruteforce(store, query)
    assert sorted(result.rows) == sorted(oracle)


@SETTINGS
@given(graph=edge_lists(), query=acyclic_queries())
def test_acyclic_ag_is_ideal(graph, query):
    store = build_store(graph)
    detail = WireframeEngine(store).evaluate_detailed(query)
    ideal = ideal_answer_graph(store, query)
    for eid in range(len(query.edges)):
        assert detail.answer_graph.edge_pairs(eid) == ideal[eid]


@SETTINGS
@given(graph=edge_lists(), query=cyclic_queries())
def test_cyclic_embeddings_match_oracle(graph, query):
    store = build_store(graph)
    result = WireframeEngine(store).evaluate(query)
    oracle = enumerate_embeddings_bruteforce(store, query)
    assert sorted(result.rows) == sorted(oracle)


@SETTINGS
@given(graph=edge_lists(), query=cyclic_queries())
def test_cyclic_node_burnback_ag_contains_ideal(graph, query):
    store = build_store(graph)
    detail = WireframeEngine(store).evaluate_detailed(query)
    ideal = ideal_answer_graph(store, query)
    for eid in range(len(query.edges)):
        assert detail.answer_graph.edge_pairs(eid) >= ideal[eid]


@SETTINGS
@given(graph=edge_lists(), query=cyclic_queries())
def test_cyclic_edge_burnback_reaches_ideal(graph, query):
    """Triangles/diamonds/parallel pairs all have treewidth <= 2, so
    triangle consistency must recover the ideal AG exactly."""
    store = build_store(graph)
    engine = WireframeEngine(store, edge_burnback=True)
    detail = engine.evaluate_detailed(query)
    ideal = ideal_answer_graph(store, query)
    from repro.query.shapes import find_cycles

    cycles = find_cycles(query)
    if any(len(c) < 3 for c in cycles):
        # Parallel-edge cycles are not triangulated (no interior);
        # only the superset property is guaranteed for them.
        for eid in range(len(query.edges)):
            assert detail.answer_graph.edge_pairs(eid) >= ideal[eid]
    else:
        for eid in range(len(query.edges)):
            assert detail.answer_graph.edge_pairs(eid) == ideal[eid]


@SETTINGS
@given(graph=edge_lists(), query=acyclic_queries())
def test_node_sets_are_projections_on_acyclic(graph, query):
    """On an ideal AG every variable's node set is exactly the set of
    values that variable takes across the embeddings."""
    store = build_store(graph)
    detail = WireframeEngine(store).evaluate_detailed(query)
    embeddings = enumerate_embeddings_bruteforce(store, query)
    if not embeddings:
        assert detail.count == 0
        return
    ag = detail.answer_graph
    for var_index in range(len(query.variables)):
        expected = {emb[var_index] for emb in embeddings}
        assert ag.node_sets[var_index] == expected


@SETTINGS
@given(graph=edge_lists(), query=acyclic_queries())
def test_count_mode_equals_materialized(graph, query):
    store = build_store(graph)
    engine = WireframeEngine(store)
    assert (
        engine.evaluate(query, materialize=False).count
        == engine.evaluate(query).count
    )


@SETTINGS
@given(graph=edge_lists(), query=acyclic_queries())
def test_factorized_count_equals_enumeration(graph, query):
    """Counting on the factorized AG equals counting by enumeration."""
    from repro.core.defactorize import count_embeddings

    store = build_store(graph)
    detail = WireframeEngine(store).evaluate_detailed(query, materialize=False)
    oracle = enumerate_embeddings_bruteforce(store, query)
    assert count_embeddings(detail.answer_graph) == len(oracle)


@SETTINGS
@given(graph=edge_lists(), query=FACTORIZED_QUERIES)
def test_factorized_marginals_are_projections(graph, query):
    """Every variable's marginal equals its column histogram."""
    import collections

    from repro.core.factorized import variable_marginals

    store = build_store(graph)
    detail = WireframeEngine(store).evaluate_detailed(query, materialize=False)
    marginals = variable_marginals(detail.answer_graph)
    oracle = enumerate_embeddings_bruteforce(store, query)
    for var in range(len(query.variables)):
        expected = collections.Counter(emb[var] for emb in oracle)
        assert marginals[var] == dict(expected)


@SETTINGS
@given(graph=edge_lists(), query=FACTORIZED_QUERIES)
def test_factorized_samples_lie_in_answer_set(graph, query):
    from repro.core.factorized import sample_embedding

    store = build_store(graph)
    detail = WireframeEngine(store).evaluate_detailed(query, materialize=False)
    valid = set(enumerate_embeddings_bruteforce(store, query))
    sample = sample_embedding(detail.answer_graph, 7)
    if valid:
        assert sample in valid
    else:
        assert sample is None
