"""Tests for node burnback and edge burnback."""

from repro.core.answer_graph import AnswerGraph
from repro.core.burnback import (
    intersect_node_set,
    node_burnback,
)
from repro.core.engine import WireframeEngine
from repro.core.generation import generate_answer_graph
from repro.core.ideal import ideal_answer_graph
from repro.core.reference import register_pairs
from repro.datasets.motifs import figure4_graph, figure4_query
from repro.graph.builder import store_from_edges
from repro.planner.edgifier import Edgifier
from repro.planner.triangulator import Triangulator
from repro.query.algebra import bind_query
from repro.query.parser import parse_sparql
from repro.stats.catalog import build_catalog
from repro.stats.estimator import CardinalityEstimator
from repro.utils.deadline import Deadline


def chain_ag():
    store = store_from_edges(
        {"A": [("1", "5"), ("2", "5"), ("4", "6")], "B": [("5", "9")]}
    )
    bound = bind_query(
        parse_sparql("select * where { ?w A ?x . ?x B ?y }"), store
    )
    ag = AnswerGraph(bound)
    d = store.dictionary.lookup
    register_pairs(
        ag, ("e", 0), 0, 1, {(d("1"), d("5")), (d("2"), d("5")), (d("4"), d("6"))}
    )
    ag.node_sets[0] = {d("1"), d("2"), d("4")}
    ag.node_sets[1] = {d("5"), d("6")}
    register_pairs(ag, ("e", 1), 1, 2, {(d("5"), d("9"))})
    return store, ag


def test_intersect_first_constraint_installs():
    store, ag = chain_ag()
    removals = intersect_node_set(ag, 2, {store.dictionary.lookup("9")})
    assert removals == {}
    assert ag.node_sets[2] == {store.dictionary.lookup("9")}


def test_intersect_shrink_returns_removals():
    store, ag = chain_ag()
    d = store.dictionary.lookup
    removals = intersect_node_set(ag, 1, {d("5")})
    assert removals == {1: {d("6")}}
    assert ag.node_sets[1] == {d("5")}


def test_cascade_removes_dependent_pairs():
    store, ag = chain_ag()
    d = store.dictionary.lookup
    removals = intersect_node_set(ag, 1, {d("5")})
    burned = node_burnback(ag, removals, Deadline.unlimited())
    # Removing x=6 deletes A-pair (4,6), which strips w=4.
    assert burned >= 2
    assert ag.edge_pairs(0) == {(d("1"), d("5")), (d("2"), d("5"))}
    assert d("4") not in ag.node_sets[0]


def test_cascade_is_fixpoint_idempotent():
    store, ag = chain_ag()
    d = store.dictionary.lookup
    node_burnback(ag, intersect_node_set(ag, 1, {d("5")}), Deadline.unlimited())
    before = ag.snapshot()
    node_burnback(ag, {}, Deadline.unlimited())
    assert ag.snapshot() == before


def test_cascade_marks_empty_when_relation_drains():
    store, ag = chain_ag()
    d = store.dictionary.lookup
    removals = intersect_node_set(ag, 1, set())
    node_burnback(ag, removals, Deadline.unlimited())
    assert ag.empty


def _diamond_ag(edge_burnback_enabled):
    store = figure4_graph()
    bound = bind_query(figure4_query(), store)
    estimator = CardinalityEstimator(build_catalog(store))
    plan = Edgifier(estimator).plan(bound)
    chordification = Triangulator(estimator).plan(bound)
    ag, stats = generate_answer_graph(
        bound,
        plan,
        chordification=chordification,
        edge_burnback_enabled=edge_burnback_enabled,
    )
    return store, bound, ag, stats


def test_node_burnback_alone_leaves_spurious_edges():
    store, bound, ag, _ = _diamond_ag(False)
    ideal = ideal_answer_graph(store, bound)
    ideal_size = sum(len(pairs) for pairs in ideal.values())
    assert ideal_size == 8
    assert ag.size == 10  # the two spurious B-edges of Fig. 4 remain
    d = store.dictionary.lookup
    b_edge = next(
        eid for eid, e in enumerate(bound.edges)
        if store.dictionary.decode(e.p) == "B"
    )
    assert (d("3"), d("6")) in ag.edge_pairs(b_edge)
    assert (d("7"), d("2")) in ag.edge_pairs(b_edge)


def test_edge_burnback_restores_ideal_ag():
    store, bound, ag, stats = _diamond_ag(True)
    ideal = ideal_answer_graph(store, bound)
    for eid in range(len(bound.edges)):
        assert ag.edge_pairs(eid) == ideal[eid]
    assert stats.spurious_pairs_removed == 2
    assert stats.edge_burnback_rounds >= 1


def test_edge_burnback_noop_when_already_ideal():
    # A diamond whose AG is already ideal: edge burnback removes nothing.
    store = store_from_edges(
        {
            "A": [("3", "4")],
            "B": [("3", "2")],
            "C": [("1", "4")],
            "D": [("1", "2")],
        }
    )
    bound = bind_query(figure4_query(), store)
    estimator = CardinalityEstimator(build_catalog(store))
    plan = Edgifier(estimator).plan(bound)
    chordification = Triangulator(estimator).plan(bound)
    ag, stats = generate_answer_graph(
        bound, plan, chordification=chordification, edge_burnback_enabled=True
    )
    assert stats.spurious_pairs_removed == 0
    assert ag.size == 4


def test_edge_burnback_cascades_into_node_burnback():
    # Spurious edge whose removal strips a node entirely: B-edge (9, 6)
    # where node 9 has no other B target and its A edge then dies too.
    store = store_from_edges(
        {
            "A": [("3", "4"), ("7", "8"), ("9", "4")],
            "B": [("3", "2"), ("7", "6"), ("9", "6")],
            "C": [("1", "4"), ("5", "8")],
            "D": [("1", "2"), ("5", "6")],
        }
    )
    bound = bind_query(figure4_query(), store)
    estimator = CardinalityEstimator(build_catalog(store))
    plan = Edgifier(estimator).plan(bound)
    chordification = Triangulator(estimator).plan(bound)
    ag, _ = generate_answer_graph(
        bound, plan, chordification=chordification, edge_burnback_enabled=True
    )
    from repro.core.ideal import ideal_answer_graph as oracle

    ideal = oracle(store, bound)
    for eid in range(len(bound.edges)):
        assert ag.edge_pairs(eid) == ideal[eid]
    d = store.dictionary.lookup
    x_var = bound.var_index("x")
    assert d("9") not in ag.node_sets[x_var]


def test_buckets_after_edge_burnback_match_the_built_index():
    """Edge burnback removes pairs, not whole nodes: a relation it
    pruned is no longer its predicate between its endpoints, so
    ``bucket`` must not read it off the store any more."""
    store = figure4_graph()
    result = WireframeEngine(store, edge_burnback=True).evaluate_detailed(
        figure4_query()
    )
    ag = result.answer_graph
    assert result.generation_stats.spurious_pairs_removed == 2
    served = 0
    for rel in ag.materialized_order:
        for pos in "so":
            index = ag.index(rel, pos)
            for key in store.nodes():
                bucket = ag.bucket(rel, pos, key)
                if bucket is not None:
                    served += 1
                    assert bucket == index.get(key, set()), (rel, pos, key)
    assert served  # the relations burnback left whole still answer
