"""A limited evaluation is the head of the unlimited one.

``evaluate_detailed(limit=n)`` builds only the first ``n`` rows phase 2
enumerates and still counts every row: its ``rows`` are the unlimited
``rows[:n]``, in the same order, and ``count``, ``ag_size`` and
``edge_walks`` are the unlimited run's — under plain, DISTINCT and
narrowing projections, on both storage backends.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.defactorize import _shape
from repro.core.engine import WireframeEngine
from repro.errors import PlanError
from repro.query.model import ConjunctiveQuery

from tests.properties.strategies import (
    PHASE2_SHAPES,
    build_store,
    edge_lists,
    projected_queries,
)

LIMITS = (0, 1, 3, None)


def assert_heads_agree(store, query) -> None:
    engine = WireframeEngine(store)
    try:
        prepared = engine.plan(query)
    except PlanError:  # e.g. an unknown constant disconnects the query
        assume(False)
    full = engine.evaluate_detailed(query, prepared=prepared)
    assert full.count == len(full.rows)
    for limit in LIMITS:
        got = engine.evaluate_detailed(query, prepared=prepared, limit=limit)
        assert got.rows == full.rows[:limit], limit
        assert (got.count, got.ag_size, got.generation_stats.edge_walks) == (
            full.count, full.ag_size, full.generation_stats.edge_walks
        ), limit


@pytest.mark.parametrize("backend", ["hashdict", "columnar"])
@settings(max_examples=20, deadline=None)
@given(graph=edge_lists(), shape=st.sampled_from(sorted(PHASE2_SHAPES)), data=st.data())
def test_limited_rows_are_the_head_of_the_full_rows(backend, graph, shape, data):
    query = data.draw(projected_queries(PHASE2_SHAPES[shape]))
    assert_heads_agree(build_store(graph, backend), query)


@pytest.mark.parametrize("backend", ["hashdict", "columnar"])
def test_distinct_over_a_dropped_skeleton_variable_enumerates(backend):
    """``?b`` joins both edges and is projected away under DISTINCT, so
    rows cannot be counted from pool sizes: four distinct rows out of
    five embeddings, counted and cut by enumeration."""
    store = build_store(
        {"A": [(0, 1), (0, 2), (5, 1)], "B": [(1, 3), (2, 3), (1, 4)]}, backend
    )
    query = ConjunctiveQuery(
        [("?a", "A", "?b"), ("?b", "B", "?c")], projection=["?a", "?c"], distinct=True
    )
    ag = WireframeEngine(store).evaluate_detailed(query).answer_graph
    assert not _shape(ag, None, ag.bound.projection, True).exact
    assert_heads_agree(store, query)
    assert WireframeEngine(store).evaluate(query).count == 4
