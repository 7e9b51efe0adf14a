"""Look-ahead changes what phase 1 walks, never what it leaves.

After node burnback the answer graph is the greatest arc-consistent
fixpoint of the query's relations, which does not depend on *when* a
node that no data edge of some other query edge can match is dropped:
at the extension that would have bound it (look-ahead) or by the
burnback after that other edge's own extension (the paper). So every
relation, every node set, every chord and edge-burnback count and every
row is the same with ``lookahead`` on and off; only ``edge_walks``,
``step_walks`` and ``burned_nodes`` may move. They need not fall query
by query — a step with both endpoints bound walks from the smaller
candidate set, and which one that is can flip — so totals are pinned on
the paper's queries (``tests/core/test_kernels_equivalence.py``), not
compared here.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.engine import WireframeEngine
from repro.errors import PlanError

from tests.properties.strategies import (
    LABELS,
    PHASE2_SHAPES,
    build_store,
    edge_lists,
    projected_queries,
)

#: ``Z`` labels no edge: an unsatisfiable predicate.
ALPHABET = LABELS + ("Z",)

SAME_EITHER_WAY = ("chord_pairs", "edge_burnback_rounds", "spurious_pairs_removed")


@pytest.mark.parametrize(
    "edge_burnback", [False, True], ids=["node-burnback", "edge-burnback"]
)
@pytest.mark.parametrize("backend", ["hashdict", "columnar"])
@settings(max_examples=25, deadline=None)
@given(graph=edge_lists(), shape=st.sampled_from(sorted(PHASE2_SHAPES)), data=st.data())
def test_lookahead_leaves_the_same_answer_graph(
    backend, edge_burnback, graph, shape, data
):
    store = build_store(graph, backend)
    query = data.draw(projected_queries(PHASE2_SHAPES[shape], ALPHABET))
    ahead = WireframeEngine(store, edge_burnback=edge_burnback)
    paper = WireframeEngine(
        store, ahead.catalog, edge_burnback=edge_burnback, lookahead=False
    )
    try:
        prepared = ahead.plan(query)
    except PlanError:  # e.g. an unknown constant disconnects the query
        assume(False)
    on = ahead.evaluate_detailed(query, prepared=prepared)
    off = paper.evaluate_detailed(query, prepared=prepared)

    assert sorted(on.rows) == sorted(off.rows)
    assert on.ag_size == off.ag_size
    assert on.answer_graph.empty == off.answer_graph.empty
    for field in SAME_EITHER_WAY:
        assert getattr(on.generation_stats, field) == getattr(
            off.generation_stats, field
        )
    for eid in range(len(query.edges)):
        assert on.answer_graph.edge_pairs(eid) == off.answer_graph.edge_pairs(eid)
    on_sets, off_sets = on.answer_graph.node_sets, off.answer_graph.node_sets
    if on.answer_graph.empty:
        # Emptiness can show a step earlier, before a variable that
        # the skipped steps would have bound (to nothing) has a set.
        off_sets = {var: off_sets[var] for var in on_sets}
    assert on_sets == off_sets
