"""Tests for the phase-2 embedding planner."""

import pytest

from repro.errors import PlanError
from repro.graph.store import TripleStore
from repro.planner.embedding_planner import greedy_embedding_plan
from repro.planner.plan import validate_connected_order
from repro.query.algebra import bind_query
from repro.query.model import ConjunctiveQuery
from repro.query.parser import parse_sparql


def bind(query):
    return bind_query(query, TripleStore())


def chain3():
    return bind(parse_sparql("select * where { ?w A ?x . ?x B ?y . ?y C ?z }"))


def test_greedy_starts_with_smallest_relation():
    bound = chain3()
    sizes = {0: 100, 1: 3, 2: 50}
    counts = {(i, s): 10 for i in range(3) for s in ("s", "o")}
    plan = greedy_embedding_plan(bound, sizes, counts)
    assert plan.order[0] == 1


def test_greedy_order_connected():
    bound = chain3()
    sizes = {0: 5, 1: 8, 2: 2}
    counts = {(i, s): 2 for i in range(3) for s in ("s", "o")}
    plan = greedy_embedding_plan(bound, sizes, counts)
    validate_connected_order(plan.order, [e.var_set() for e in bound.edges])
    assert sorted(plan.order) == [0, 1, 2]


def test_zero_size_relation_preferred_first():
    bound = chain3()
    sizes = {0: 10, 1: 0, 2: 10}
    counts = {(i, s): 1 for i in range(3) for s in ("s", "o")}
    plan = greedy_embedding_plan(bound, sizes, counts)
    assert plan.order[0] == 1


def test_closing_edge_shrinks_estimate():
    # Diamond: the last edge closes the cycle, both endpoints bound.
    bound = bind(
        parse_sparql(
            "select * where { ?x A ?e . ?x B ?z . ?y C ?e . ?y D ?z }"
        )
    )
    sizes = {i: 10 for i in range(4)}
    counts = {(i, s): 5 for i in range(4) for s in ("s", "o")}
    plan = greedy_embedding_plan(bound, sizes, counts)
    validate_connected_order(plan.order, [e.var_set() for e in bound.edges])
    assert sorted(plan.order) == [0, 1, 2, 3]


def test_disconnected_rejected():
    bound = bind(
        ConjunctiveQuery([("?a", "A", "?b"), ("?c", "B", "?d")])
    )
    sizes = {0: 1, 1: 1}
    counts = {(i, s): 1 for i in range(2) for s in ("s", "o")}
    with pytest.raises(PlanError):
        greedy_embedding_plan(bound, sizes, counts)
