"""Phase 2's rows in the depth-first enumerator's order.

:mod:`repro.core.defactorize` enumerates the skeleton a level at a time
for a block of roots; :mod:`tests.core.defactorize_reference` keeps the
one-assignment-at-a-time enumerator it replaced. The rows must be the
same *list*, not only the same multiset: a limited head, the result
cache and the wire bytes all depend on the order.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import defactorize
from repro.core.defactorize import (
    count_embeddings,
    first_embeddings,
    iter_embeddings,
    materialize_embeddings,
)
from repro.core.engine import WireframeEngine
from repro.core.generation import generate_answer_graph
from repro.query.algebra import bind_query
from repro.query.model import ConjunctiveQuery

from tests.core.defactorize_reference import reference_rows
from tests.properties.strategies import PHASE2_SHAPES, build_store, edge_lists, projected_queries
from tests.properties.test_property_defactorize import (
    CHORDED_SHAPES,
    connected_orders,
    empty_subject,
)


def assert_in_reference_order(ag) -> None:
    for order in connected_orders(ag.bound):
        # Heads and the count first, while the indexes phase 1 left
        # unbuilt are still unbuilt and a head reads them lazily.
        n = count_embeddings(ag, order)
        heads = {k: first_embeddings(ag, k, order) for k in (0, 1, 7, n)}
        rows = materialize_embeddings(ag, order)
        assert rows == reference_rows(ag, order), order
        assert n == len(rows), order
        for k, head in heads.items():
            assert head == (rows[:k], n), (order, k)
        everything = range(ag.bound.num_vars)
        assert list(iter_embeddings(ag, order)) == reference_rows(ag, order, everything), order


def answer_graph(graph, query, keep_chords: bool):
    store = build_store(graph)
    engine = WireframeEngine(store)
    if not keep_chords:
        return engine.evaluate_detailed(query, materialize=False).answer_graph
    bound, plan, chordification = engine.plan(query)
    ag, _ = generate_answer_graph(bound, plan, chordification=chordification, keep_chords=True)
    return ag


def check(graph, query, victim: int, keep_chords: bool = False) -> None:
    """On the generated AG, then on a non-ideal one."""
    ag = answer_graph(graph, query, keep_chords)
    assert_in_reference_order(ag)
    if ag.empty:
        return
    edge = ag.bound.edges[victim % len(ag.bound.edges)]
    subjects = sorted(ag.forward(("e", edge.index)))
    empty_subject(ag, edge.index, subjects[victim % len(subjects)])
    assert_in_reference_order(ag)


@pytest.mark.parametrize("shape", PHASE2_SHAPES.values(), ids=PHASE2_SHAPES.keys())
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_rows_come_in_the_reference_order(shape, data):
    graph = data.draw(edge_lists(max_nodes=6, max_edges_per_label=12))
    query = data.draw(projected_queries(shape))
    assume(
        all(
            (e.s_var, e.s_const) != (None, None) and (e.o_var, e.o_const) != (None, None)
            for e in bind_query(query, build_store(graph)).edges
        )
    )
    check(graph, query, data.draw(st.integers(min_value=0, max_value=10**6)))


@pytest.mark.parametrize("shape", CHORDED_SHAPES.values(), ids=CHORDED_SHAPES.keys())
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_rows_through_kept_chords_come_in_the_reference_order(shape, data):
    graph = data.draw(edge_lists(max_nodes=6, max_edges_per_label=12))
    query = data.draw(projected_queries(shape))
    check(graph, query, data.draw(st.integers(min_value=0, max_value=10**6)), keep_chords=True)


#: Disjoint paths: every pool of the two-edge chain holds one node.
PATHS = {"A": [(10 * p + i, 10 * p + i + 1) for p in range(5) for i in range(4)]}


@pytest.mark.parametrize("shape", [
    (("?a", "A", "?b"),),
    (("?a", "A", "?b"), ("?b", "A", "?c")),
], ids=["one-edge", "two-edge"])
def test_single_node_pools_go_out_by_zip(monkeypatch, shape):
    ag = answer_graph(PATHS, ConjunctiveQuery(list(shape)), keep_chords=False)
    expected = reference_rows(ag)

    def no_product(*pools):
        raise AssertionError("single-node pools went through product")

    monkeypatch.setattr(defactorize, "product", no_product)
    assert materialize_embeddings(ag) == expected
    assert len(expected) == (20 if len(shape) == 1 else 15)
    assert first_embeddings(ag, 7) == (expected[:7], len(expected))
    assert count_embeddings(ag) == len(expected)
