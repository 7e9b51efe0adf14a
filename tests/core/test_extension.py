"""Tests for the edge-extension step."""

import pytest

from repro.core.answer_graph import AnswerGraph
from repro.core.extension import ExtensionResult, extend_edge_bulk
from repro.core.reference import extend_edge_reference, register_pairs
from repro.graph.builder import store_from_edges
from repro.query.algebra import bind_query
from repro.query.parser import parse_sparql
from repro.utils.deadline import Deadline

from tests.properties.strategies import bulk_pairs


def extend_edge(ag, store, edge, deadline) -> ExtensionResult:
    """One bulk extension as (pairs, walks), checked on the way: it
    returns the one direction it walked, in containers of its own, and
    agrees with the tuple-at-a-time reference."""
    result = extend_edge_bulk(ag, store, edge, deadline)
    assert (result.forward is None) != (result.backward is None)
    got = ExtensionResult(bulk_pairs(result), result.walks)
    assert got == extend_edge_reference(ag, store, edge, Deadline.unlimited())
    if edge.satisfiable:
        for s, objs in (result.forward or {}).items():
            assert objs is not store.successors(edge.p, s)
        for o, subs in (result.backward or {}).items():
            assert subs is not store.predecessors(edge.p, o)
    return got


def setup(sparql, edges):
    store = store_from_edges(edges)
    bound = bind_query(parse_sparql(sparql), store)
    return store, bound, AnswerGraph(bound)


def test_unconstrained_extension_scans_label():
    store, bound, ag = setup(
        "select * where { ?x A ?y }", {"A": [("1", "2"), ("3", "4")]}
    )
    result = extend_edge(ag, store, bound.edges[0], Deadline.unlimited())
    assert len(result.pairs) == 2
    assert result.edge_walks == 2


def test_subject_constrained_extension():
    store, bound, ag = setup(
        "select * where { ?x A ?y . ?y B ?z }",
        {"A": [("1", "5"), ("2", "5"), ("3", "6")], "B": [("5", "9"), ("6", "9"), ("7", "9")]},
    )
    r0 = extend_edge(ag, store, bound.edges[0], Deadline.unlimited())
    register_pairs(ag, ("e", 0), 0, 1, r0.pairs)
    ag.node_sets[1] = set(ag.endpoints(("e", 0), "o"))
    r1 = extend_edge(ag, store, bound.edges[1], Deadline.unlimited())
    # Only B-edges from {5, 6}; the (7, 9) edge is never walked.
    assert r1.edge_walks == 2
    s5 = store.dictionary.lookup("5")
    assert all(s in {s5, store.dictionary.lookup("6")} for s, _ in r1.pairs)


def test_object_constrained_extension():
    store, bound, ag = setup(
        "select * where { ?x A ?y . ?z B ?x }",
        {"A": [("1", "2")], "B": [("9", "1"), ("9", "8")]},
    )
    r0 = extend_edge(ag, store, bound.edges[0], Deadline.unlimited())
    register_pairs(ag, ("e", 0), 0, 1, r0.pairs)
    ag.node_sets[0] = set(ag.endpoints(("e", 0), "s"))
    r1 = extend_edge(ag, store, bound.edges[1], Deadline.unlimited())
    assert r1.edge_walks == 1  # only predecessors of node "1"
    assert r1.pairs == {(store.dictionary.lookup("9"), store.dictionary.lookup("1"))}
    # Walked from the objects, so that is the index it hands over.
    bulk = extend_edge_bulk(ag, store, bound.edges[1], Deadline.unlimited())
    assert bulk.forward is None and set(bulk.backward) == ag.node_sets[0]


def test_both_constrained_walks_smaller_side():
    store, bound, ag = setup(
        "select * where { ?x A ?y }",
        {"A": [("1", "2"), ("1", "3"), ("4", "2")]},
    )
    one = store.dictionary.lookup("1")
    two = store.dictionary.lookup("2")
    ag.node_sets[0] = {one}
    ag.node_sets[1] = {two}
    result = extend_edge(ag, store, bound.edges[0], Deadline.unlimited())
    assert result.pairs == {(one, two)}
    # Walked from the single-subject side: 2 successors of node 1.
    assert result.edge_walks == 2


def test_constant_subject():
    store, bound, ag = setup(
        'select * where { 1 A ?y }', {"A": [("1", "2"), ("3", "4")]}
    )
    result = extend_edge(ag, store, bound.edges[0], Deadline.unlimited())
    assert len(result.pairs) == 1
    assert result.edge_walks == 1


def test_constant_object():
    store, bound, ag = setup(
        'select * where { ?x A 2 }', {"A": [("1", "2"), ("3", "4")]}
    )
    result = extend_edge(ag, store, bound.edges[0], Deadline.unlimited())
    one, two = store.dictionary.lookup("1"), store.dictionary.lookup("2")
    assert result.pairs == {(one, two)}
    assert result.edge_walks == 1  # the predecessors of the constant
    bulk = extend_edge_bulk(ag, store, bound.edges[0], Deadline.unlimited())
    assert bulk.forward is None and bulk.backward == {two: {one}}


def test_self_loop_filters_diagonal():
    store, bound, ag = setup(
        "select * where { ?x A ?x }", {"A": [("1", "1"), ("1", "2"), ("3", "3")]}
    )
    result = extend_edge(ag, store, bound.edges[0], Deadline.unlimited())
    values = {s for s, o in result.pairs}
    assert values == {
        store.dictionary.lookup("1"),
        store.dictionary.lookup("3"),
    }
    assert all(s == o for s, o in result.pairs)


def test_unsatisfiable_edge_yields_nothing():
    store, bound, ag = setup(
        "select * where { ?x missing ?y }", {"A": [("1", "2")]}
    )
    result = extend_edge(ag, store, bound.edges[0], Deadline.unlimited())
    assert result.pairs == set() and result.edge_walks == 0


def test_deadline_enforced():
    from repro.errors import EvaluationTimeout

    pairs = {(str(i), str(i + 1)) for i in range(5000)}
    store, bound, ag = setup("select * where { ?x A ?y }", {"A": pairs})
    deadline = Deadline(0.000001, stride=64)
    import time

    time.sleep(0.01)
    with pytest.raises(EvaluationTimeout):
        extend_edge_bulk(ag, store, bound.edges[0], deadline)
