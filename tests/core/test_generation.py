"""Tests for phase-1 orchestration (extension + burnback interleaving)."""

import pytest

from repro.core.generation import GenerationTrace, generate_answer_graph
from repro.core.ideal import ideal_answer_graph
from repro.datasets.motifs import figure1_graph, figure1_query
from repro.errors import PlanError
from repro.graph.builder import store_from_edges
from repro.planner.plan import AGPlan
from repro.query.algebra import bind_query
from repro.query.parser import parse_sparql


def bound_fig1():
    store = figure1_graph()
    return store, bind_query(figure1_query(), store)


def manual_plan(order):
    return AGPlan(order=tuple(order), step_costs=(0.0,) * len(order),
                  estimated_cost=0.0)


def test_forward_order_reaches_ideal_ag():
    store, bound = bound_fig1()
    ag, stats = generate_answer_graph(bound, manual_plan([0, 1, 2]))
    ideal = ideal_answer_graph(store, bound)
    for eid in range(3):
        assert ag.edge_pairs(eid) == ideal[eid]
    assert ag.size == 8
    assert stats.edge_walks > 0


def test_any_connected_order_reaches_ideal_ag():
    store, bound = bound_fig1()
    ideal = ideal_answer_graph(store, bound)
    for order in ([0, 1, 2], [1, 0, 2], [1, 2, 0], [2, 1, 0]):
        ag, _ = generate_answer_graph(bound, manual_plan(order))
        for eid in range(3):
            assert ag.edge_pairs(eid) == ideal[eid], order


def test_disconnected_order_rejected():
    _, bound = bound_fig1()
    with pytest.raises(ValueError):
        generate_answer_graph(bound, manual_plan([0, 2, 1]))


def test_partial_plan_rejected():
    _, bound = bound_fig1()
    with pytest.raises(PlanError):
        generate_answer_graph(bound, manual_plan([0, 1]))


def test_empty_result_short_circuits():
    store = store_from_edges({"A": [("1", "2")], "B": [("9", "10")]})
    bound = bind_query(
        parse_sparql("select * where { ?x A ?y . ?y B ?z }"), store
    )
    ag, stats = generate_answer_graph(bound, manual_plan([0, 1]))
    assert ag.empty
    # The B step never walked anything useful after emptiness.
    assert len(stats.step_walks) == 2


def test_empty_lookahead_view_short_circuits():
    """``9`` is a node but nothing points at it through C: the view of
    ?y's other edge is empty, so the A step walks nothing at all."""
    store = store_from_edges(
        {"A": [("1", "2")], "B": [("2", "9")], "C": [("10", "2")]}
    )
    bound = bind_query(
        parse_sparql("select * where { ?x A ?y . ?y C 9 }"), store
    )
    ag, stats = generate_answer_graph(bound, manual_plan([0, 1]))
    assert ag.empty and ag.size == 0
    assert stats.step_walks == [0, 0] and stats.edge_walks == 0
    ag, stats = generate_answer_graph(bound, manual_plan([0, 1]), lookahead=False)
    assert ag.empty and ag.size == 0
    assert stats.step_walks == [1, 0]


def test_deadline_fires_inside_a_lookahead_scan():
    from repro.errors import EvaluationTimeout
    from repro.utils.deadline import Deadline

    chain = [(str(i), str(i + 1)) for i in range(5000)]
    store = store_from_edges({"A": chain, "B": chain})
    bound = bind_query(
        parse_sparql("select * where { ?x A ?y . ?y B ?z }"), store
    )
    with pytest.raises(EvaluationTimeout) as caught:
        generate_answer_graph(
            bound, manual_plan([0, 1]), deadline=Deadline(0.000001, stride=64)
        )
    # Inside the store's one extension primitive, on the first step.
    frames = [entry.name for entry in caught.traceback]
    assert frames[-3:-1] == ["gather", "gather"] and frames[-4] == "bulk_extend"


def test_trace_records_fig2_cascade():
    """Replays the worked example of Fig. 2 step by step (the paper's
    phase 1: no look-ahead)."""
    store, bound = bound_fig1()
    d = store.dictionary.lookup
    trace = GenerationTrace()
    generate_answer_graph(
        bound, manual_plan([0, 1, 2]), trace=trace, lookahead=False
    )

    extends = trace.of_kind("extend")
    assert [e[1] for e in extends] == [0, 1, 2]

    # After extending A: all four A-edges are in the AG (incl. 4->6).
    after_a = extends[0][2]
    assert len(after_a["pairs"][("e", 0)]) == 4

    # After extending B (x restricted to {5, 6}): pairs (5,9) and (6,10);
    # the (7,11) B-edge was never retrieved.
    after_b = extends[1][2]
    assert after_b["pairs"][("e", 1)] == {
        (d("5"), d("9")),
        (d("6"), d("10")),
    }

    # After extending C (y restricted to {9, 10}): only 9 extends; the
    # burnback cascade then removes 10 -> 6 -> 4 (Fig. 2's two "burning
    # nodes" steps).
    burnbacks = trace.of_kind("burnback")
    final = burnbacks[-1][2]
    assert final["pairs"][("e", 0)] == {
        (d("1"), d("5")),
        (d("2"), d("5")),
        (d("3"), d("5")),
    }
    assert final["pairs"][("e", 1)] == {(d("5"), d("9"))}
    assert len(final["pairs"][("e", 2)]) == 4
    assert final["node_sets"][bound.var_index("x")] == {d("5")}
    assert final["node_sets"][bound.var_index("y")] == {d("9")}

    # The default looks one edge ahead: 10 is no C-subject, so the B
    # step never registers (6, 10) and burns 6 -> 4 there and then; the
    # C step has nothing left to burn. Same final state.
    ahead = GenerationTrace()
    ag, _ = generate_answer_graph(bound, manual_plan([0, 1, 2]), trace=ahead)
    extends = ahead.of_kind("extend")
    assert len(extends[0][2]["pairs"][("e", 0)]) == 4  # 6 is a B-subject
    assert extends[1][2]["pairs"][("e", 1)] == {(d("5"), d("9"))}
    assert [sorted(e[1]) for e in ahead.of_kind("burnback")] == [
        [bound.var_index("x")]
    ]
    assert ag.snapshot() == final


def test_burned_nodes_counted():
    store, bound = bound_fig1()
    _, stats = generate_answer_graph(
        bound, manual_plan([0, 1, 2]), lookahead=False
    )
    # Nodes 10 (y), 6 (x), 4 (w) burn in the final cascade.
    assert stats.burned_nodes >= 3
    # With look-ahead 10 is never a node of the AG.
    _, stats = generate_answer_graph(bound, manual_plan([0, 1, 2]))
    assert stats.burned_nodes == 2


def test_generation_stats_walks_match_paper_cost_unit():
    store, bound = bound_fig1()
    _, stats = generate_answer_graph(
        bound, manual_plan([0, 1, 2]), lookahead=False
    )
    # A scans 4 edges, B retrieves 2 (from x in {5,6}), C retrieves 4
    # (from y in {9,10}; 10 has none).
    assert stats.step_walks == [4, 2, 4]
    assert stats.edge_walks == 10
    # Retrieved is retrieved: looking ahead filters the far end of the
    # B step, not what it walks; C then starts from y = {9} alone.
    _, stats = generate_answer_graph(bound, manual_plan([0, 1, 2]))
    assert stats.step_walks == [4, 2, 4]
