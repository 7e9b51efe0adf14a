"""Tests for the AnswerGraph data structure."""

import pytest

from repro.core.answer_graph import AnswerGraph
from repro.core.reference import register_pairs
from repro.errors import EvaluationError
from repro.graph.builder import store_from_edges
from repro.query.algebra import bind_query
from repro.query.parser import parse_sparql


@pytest.fixture
def ag():
    store = store_from_edges({"A": [("1", "2")], "B": [("2", "3")]})
    bound = bind_query(
        parse_sparql("select * where { ?x A ?y . ?y B ?z }"), store
    )
    return AnswerGraph(bound)


def test_register_and_views(ag):
    register_pairs(ag, ("e", 0), 0, 1, {(10, 20), (11, 20)})
    assert ag.relation_size(("e", 0)) == 2
    assert ag.edge_pairs(0) == {(10, 20), (11, 20)}
    assert set(ag.pairs(("e", 0))) == {(10, 20), (11, 20)}
    assert ag.size == 2
    assert ag.is_materialized(("e", 0))
    assert not ag.is_materialized(("e", 1))


def test_duplicate_registration_rejected(ag):
    register_pairs(ag, ("e", 0), 0, 1, {(1, 2)})
    with pytest.raises(EvaluationError):
        register_pairs(ag, ("e", 0), 0, 1, {(1, 2)})


def test_empty_relation_marks_empty(ag):
    register_pairs(ag, ("e", 0), 0, 1, set())
    assert ag.empty


def test_node_set_requires_constraint(ag):
    with pytest.raises(EvaluationError):
        ag.node_set(0)


def test_chords_not_counted_in_size(ag):
    register_pairs(ag, ("e", 0), 0, 1, {(1, 2)})
    register_pairs(ag, ("c", 0), 0, 2, {(1, 3), (1, 4)})
    assert ag.size == 1  # chord pairs excluded from |AG|


def test_drop_relation(ag):
    register_pairs(ag, ("e", 0), 0, 1, {(1, 2)})
    register_pairs(ag, ("c", 0), 0, 2, {(1, 3)})
    ag.drop_relation(("c", 0))
    assert not ag.is_materialized(("c", 0))
    assert ag.materialized_order == [("e", 0)]
    # Positions cleaned up: only the edge remains for var 0.
    assert all(rel == ("e", 0) for rel, _ in ag.var_positions[0])
    ag.drop_relation(("c", 99))  # dropping a missing relation is a no-op


def test_var_positions_for_self_loop():
    store = store_from_edges({"A": [("1", "1")]})
    bound = bind_query(parse_sparql("select * where { ?x A ?x }"), store)
    ag = AnswerGraph(bound)
    register_pairs(ag, ("e", 0), 0, 0, {(5, 5)})
    positions = ag.var_positions[0]
    assert (("e", 0), "s") in positions and (("e", 0), "o") in positions


def test_relation_statistics(ag):
    register_pairs(ag, ("e", 0), 0, 1, {(1, 10), (2, 10), (2, 11)})
    register_pairs(ag, ("e", 1), 1, 2, {(10, 20)})
    sizes, counts = ag.relation_statistics()
    assert sizes == {0: 3, 1: 1}
    assert counts[(0, "s")] == 2  # subjects 1, 2
    assert counts[(0, "o")] == 2  # objects 10, 11
    assert counts[(1, "s")] == 1


def test_snapshot_is_deep(ag):
    register_pairs(ag, ("e", 0), 0, 1, {(1, 2)})
    ag.node_sets[0] = {1}
    snap = ag.snapshot()
    ag.node_sets[0].add(99)
    assert snap["node_sets"][0] == {1}
    assert snap["pairs"][("e", 0)] == {(1, 2)}


def test_repr(ag):
    register_pairs(ag, ("e", 0), 0, 1, {(1, 2)})
    assert "e0:1" in repr(ag)
