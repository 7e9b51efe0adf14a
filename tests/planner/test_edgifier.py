"""Tests for the Edgifier DP planner."""

import itertools
import time

import pytest

from repro.datasets.motifs import fan_chain_graph, figure1_graph, figure1_query
from repro.datasets.paper_queries import paper_queries
from repro.datasets.yago_like import generate_yago_like
from repro.errors import PlanError
from repro.graph.builder import store_from_edges
from repro.planner import edgifier
from repro.planner.cost import cost_of_order
from repro.planner.edgifier import Edgifier, greedy_plan
from repro.planner.plan import validate_connected_order
from repro.query.algebra import bind_query
from repro.query.model import ConjunctiveQuery
from repro.stats.catalog import build_catalog
from repro.stats.estimator import CardinalityEstimator


def make(store, query):
    bound = bind_query(query, store)
    estimator = CardinalityEstimator(build_catalog(store))
    return bound, Edgifier(estimator), estimator


def assert_priced_as_specified(bound, estimator, plan):
    """The compiled statistics price ``plan.order`` exactly as the
    readable model does: equal floats, not close ones."""
    assert cost_of_order(bound, estimator, plan.order) == (
        plan.estimated_cost,
        plan.step_costs,
    )


def test_plan_covers_all_edges_connected():
    store = figure1_graph()
    bound, edgifier, _ = make(store, figure1_query())
    plan = edgifier.plan(bound)
    assert sorted(plan.order) == [0, 1, 2]
    validate_connected_order(plan.order, [e.var_set() for e in bound.edges])
    assert plan.estimated_cost == pytest.approx(sum(plan.step_costs))


def test_dp_plan_is_optimal_among_connected_orders():
    store = fan_chain_graph(fan_in=10, fan_out=2, hub_pairs=3)
    q = ConjunctiveQuery([("?w", "A", "?x"), ("?x", "B", "?y"), ("?y", "C", "?z")])
    bound, edgifier, estimator = make(store, q)
    plan = edgifier.plan(bound)
    edge_vars = [e.var_set() for e in bound.edges]
    best = float("inf")
    for perm in itertools.permutations(range(3)):
        try:
            validate_connected_order(list(perm), edge_vars)
        except ValueError:
            continue
        total, _ = cost_of_order(bound, estimator, list(perm))
        best = min(best, total)
    assert plan.estimated_cost == pytest.approx(best)


def test_selective_edge_first_when_decoys_exist():
    # Most A-edges go to decoy targets with no B-edge: starting with the
    # rare B avoids ever walking them, so the DP must not start with A.
    store = fan_chain_graph(fan_in=5, fan_out=5, hub_pairs=2)
    a = "A"
    for i in range(80):
        store.add_term_triple(f"decoy_src{i}", a, f"decoy_dst{i}")
    q = ConjunctiveQuery([("?w", "A", "?x"), ("?x", "B", "?y"), ("?y", "C", "?z")])
    bound, edgifier, _ = make(store, q)
    plan = edgifier.plan(bound)
    assert plan.order[0] != 0
    # And the A step is priced at the surviving hub fan-in, not the
    # whole 90-edge relation.
    a_step = plan.step_costs[plan.order.index(0)]
    assert a_step < 90


def test_single_edge_plan():
    store = figure1_graph()
    q = ConjunctiveQuery([("?a", "A", "?b")])
    bound, edgifier, _ = make(store, q)
    plan = edgifier.plan(bound)
    assert plan.order == (0,)
    assert plan.step_costs[0] == 4.0  # four A edges


@pytest.fixture(scope="module")
def yago():
    store = generate_yago_like(scale=0.1, seed=3)
    return store, CardinalityEstimator(build_catalog(store))


#: Edgifier orders of the ten paper queries on the ``yago`` fixture, as
#: the dict-state DP this planner replaced produced them.
PAPER_ORDERS = {
    "CQ_S#1": (3, 4, 0, 1, 2, 6, 5, 8, 7),
    "CQ_S#2": (0, 1, 2, 4, 3, 5, 6, 8, 7),
    "CQ_S#3": (3, 4, 0, 1, 2, 6, 8, 5, 7),
    "CQ_S#4": (0, 1, 4, 3, 5, 2, 6, 8, 7),
    "CQ_S#5": (5, 6, 1, 0, 2, 4, 3, 8, 7),
    "CQ_D#1": (1, 3, 2, 0),
    "CQ_D#2": (3, 2, 0, 1),
    "CQ_D#3": (3, 1, 0, 2),
    "CQ_D#4": (3, 2, 0, 1),
    "CQ_D#5": (3, 1, 0, 2),
}


def test_snowflake_plan_connected_prefixes(yago):
    store, estimator = yago
    orders = {}
    for query in paper_queries():
        bound = bind_query(query, store)
        plan = Edgifier(estimator).plan(bound)
        validate_connected_order(plan.order, [e.var_set() for e in bound.edges])
        assert_priced_as_specified(bound, estimator, plan)
        orders[query.name] = plan.order
    assert orders == PAPER_ORDERS


def test_wide_star_settles_for_greedy_within_the_budget(yago):
    # 2^16 connected subsets: the DP spends its expansion budget and
    # hands back the incumbent (10.8 s of exact DP before the budget).
    store, estimator = yago
    predicates = [e.predicate for e in paper_queries()[0].edges]
    star = ConjunctiveQuery(
        [("?centre", predicates[i % len(predicates)], f"?leaf{i}") for i in range(16)]
    )
    bound = bind_query(star, store)
    started = time.perf_counter()
    plan = Edgifier(estimator).plan(bound)
    assert time.perf_counter() - started < 1.0
    assert sorted(plan.order) == list(range(16))
    validate_connected_order(plan.order, [e.var_set() for e in bound.edges])
    assert plan == greedy_plan(estimator.compile(bound.edges))


def test_budget_counts_expansions_not_edges(yago, monkeypatch):
    # 20 edges but only 210 connected subsets: a chain is planned as if
    # there were no budget, where an edge-count limit would give up.
    store, estimator = yago
    predicates = [e.predicate for e in paper_queries()[0].edges]
    chain = ConjunctiveQuery(
        [(f"?x{i}", predicates[i % len(predicates)], f"?x{i + 1}") for i in range(20)]
    )
    bound = bind_query(chain, store)
    plan = Edgifier(estimator).plan(bound)
    monkeypatch.setattr(edgifier, "EXPANSION_BUDGET", 10**9)
    assert Edgifier(estimator).plan(bound) == plan
    monkeypatch.setattr(edgifier, "EXPANSION_BUDGET", 100)
    assert Edgifier(estimator).plan(bound) == greedy_plan(estimator.compile(bound.edges))


def test_greedy_fallback_matches_edge_count():
    store = figure1_graph()
    bound, _, estimator = make(store, figure1_query())
    plan = greedy_plan(estimator.compile(bound.edges))
    assert sorted(plan.order) == [0, 1, 2]
    validate_connected_order(plan.order, [e.var_set() for e in bound.edges])
    assert_priced_as_specified(bound, estimator, plan)


def test_greedy_vs_dp_costs():
    # DP can never be worse than greedy under the same model.
    store = fan_chain_graph(fan_in=7, fan_out=9, hub_pairs=2)
    q = ConjunctiveQuery([("?w", "A", "?x"), ("?x", "B", "?y"), ("?y", "C", "?z")])
    bound, edgifier, estimator = make(store, q)
    greedy = greedy_plan(estimator.compile(bound.edges))
    assert edgifier.plan(bound).estimated_cost <= greedy.estimated_cost


def test_greedy_plan_is_the_floor_where_the_dp_loses_to_it():
    # The DP keeps one entry per edge subset but the estimator state is
    # path-dependent: here its cheapest prefixes lead to a dearer whole
    # (4.2391 estimated walks) than the greedy order's (3.8717).
    store = store_from_edges(
        {
            "A": [("n2", "n0"), ("n3", "n2")],
            "B": [("n1", "n5"), ("n0", "n3"), ("n0", "n1"), ("n1", "n2"),
                  ("n0", "n4"), ("n7", "n0"), ("n7", "n2"), ("n5", "n7")],
            "C": [("n1", "n2"), ("n0", "n5"), ("n0", "n1")],
            "D": [("n4", "n2")],
        }
    )
    q = ConjunctiveQuery(
        [("n0", "B", "?v1"), ("?v2", "C", "?v1"), ("?v1", "C", "?v0"),
         ("n1", "B", "?v1"), ("?v3", "C", "?v0")]
    )
    bound, edgifier, estimator = make(store, q)
    plan = edgifier.plan(bound)
    greedy = greedy_plan(estimator.compile(bound.edges))
    assert plan == greedy
    assert plan.estimated_cost == pytest.approx(3.8717, abs=1e-4)
    assert_priced_as_specified(bound, estimator, plan)


def test_disconnected_query_rejected():
    store = figure1_graph()
    q = ConjunctiveQuery([("?a", "A", "?b"), ("?c", "B", "?d")])
    bound, edgifier, estimator = make(store, q)
    with pytest.raises(PlanError):
        edgifier.plan(bound)
    with pytest.raises(PlanError):
        greedy_plan(estimator.compile(bound.edges))


def test_query_joined_only_through_an_unknown_constant_plans():
    """The constant matches nothing, so the plan yields no rows; it is
    still a join, not a cross product."""
    store = figure1_graph()
    q = ConjunctiveQuery([("?a", "A", "zz"), ("zz", "B", "?b")])
    bound, edgifier, estimator = make(store, q)
    assert sorted(edgifier.plan(bound).order) == [0, 1]
    assert sorted(greedy_plan(estimator.compile(bound.edges)).order) == [0, 1]


def test_cost_of_order_validates_permutation():
    store = figure1_graph()
    bound, _, estimator = make(store, figure1_query())
    with pytest.raises(PlanError):
        cost_of_order(bound, estimator, [0, 1])
    with pytest.raises(PlanError):
        cost_of_order(bound, estimator, [0, 1, 1])
