"""Property-based tests for the planners."""

import pytest
from hypothesis import given, settings

from repro.errors import PlanError
from repro.planner.cost import cost_of_order
from repro.planner.edgifier import Edgifier, greedy_plan
from repro.planner.plan import AGPlan, validate_connected_order
from repro.planner.triangulator import Triangulator
from repro.query.algebra import bind_query
from repro.query.shapes import find_cycles, is_acyclic
from repro.stats.catalog import build_catalog
from repro.stats.estimator import CardinalityEstimator

from tests.properties.strategies import (
    ACYCLIC_SHAPES,
    CYCLIC_SHAPES,
    PHASE2_SHAPES,
    acyclic_queries,
    build_store,
    cyclic_queries,
    edge_lists,
    shaped_queries,
)

SETTINGS = settings(max_examples=50, deadline=None)

#: What the Edgifier is drawn: the shared shapes plus a 5- and a 6-edge
#: one and a self-loop, with constants and unknown labels mixed in.
PLANNED_ACYCLIC = ACYCLIC_SHAPES + (PHASE2_SHAPES["snowflake"],)
PLANNED_CYCLIC = CYCLIC_SHAPES + (
    PHASE2_SHAPES["diamond-with-pendant-leaves"],
    PHASE2_SHAPES["self-loop"],
)


def _connectable(tokens, order, eid):
    bound_tokens = frozenset().union(*(tokens[done] for done in order))
    return not bound_tokens or not tokens[eid] or bool(tokens[eid] & bound_tokens)


def _specified_dp(bound, estimator):
    """The Edgifier's recurrence, stated on ``estimate_extension``: level
    by level over connected edge subsets, one entry per subset — the
    cheapest, then the smallest total cardinality, then the first found."""
    tokens = [e.term_tokens() for e in bound.edges]

    def key(entry):
        return entry[0], sum(entry[3].cards.values())

    best = {0: (0.0, (), (), estimator.initial_state())}
    level = [0]
    while level:
        next_level = []
        for mask in level:
            cost, order, steps, state = best[mask]
            for eid in range(len(tokens)):
                if mask >> eid & 1 or not _connectable(tokens, order, eid):
                    continue
                walks, after = estimator.estimate_extension(state, bound.edges[eid])
                entry = (cost + walks, order + (eid,), steps + (walks,), after)
                rival = best.get(mask | 1 << eid)
                if rival is None:
                    next_level.append(mask | 1 << eid)
                if rival is None or key(entry) < key(rival):
                    best[mask | 1 << eid] = entry
        level = next_level
    if (1 << len(tokens)) - 1 not in best:
        return None  # no connected order covers every edge
    cost, order, steps, _ = best[(1 << len(tokens)) - 1]
    return AGPlan(order, steps, cost)


def _specified_greedy(bound, estimator, pick=min):
    """First cheapest (``max``: costliest) connectable edge at each step."""
    tokens = [e.term_tokens() for e in bound.edges]
    order, state = (), estimator.initial_state()
    while len(order) < len(tokens):
        eid = pick(
            (e for e in range(len(tokens)) if e not in order and _connectable(tokens, order, e)),
            key=lambda e: estimator.estimate_extension(state, bound.edges[e])[0],
        )
        _, state = estimator.estimate_extension(state, bound.edges[eid])
        order += (eid,)
    return AGPlan(order, *reversed(cost_of_order(bound, estimator, order)))


def _check_against_specification(graph, query):
    store = build_store(graph)
    bound = bind_query(query, store)
    estimator = CardinalityEstimator(build_catalog(store))
    dp = _specified_dp(bound, estimator)
    if dp is None:  # a constant the store lacks is no join token
        with pytest.raises(PlanError):
            Edgifier(estimator).plan(bound)
        return
    plan = Edgifier(estimator).plan(bound)

    validate_connected_order(plan.order, [e.term_tokens() for e in bound.edges])
    assert sorted(plan.order) == list(range(len(bound.edges)))

    # The compiled statistics price the plan's order exactly as the
    # readable model does: equal floats, not close ones.
    assert cost_of_order(bound, estimator, plan.order) == (
        plan.estimated_cost,
        plan.step_costs,
    )

    stats = estimator.compile(bound.edges)
    greedy = greedy_plan(stats)
    assert greedy == _specified_greedy(bound, estimator)
    assert greedy_plan(stats, pick=max) == _specified_greedy(bound, estimator, max)

    # The DP memoizes ONE estimator state per edge subset (like any
    # Selinger-style optimizer) and the state is path-dependent, so it
    # is not the optimum over left-deep orders and can even lose to the
    # greedy plan; the Edgifier returns whichever of the two is cheaper.
    assert plan.estimated_cost <= greedy.estimated_cost
    assert plan == (dp if dp.estimated_cost <= greedy.estimated_cost else greedy)


@SETTINGS
@given(graph=edge_lists(), query=shaped_queries(PLANNED_ACYCLIC, grounded=True))
def test_edgifier_plan_is_valid_and_self_consistent(graph, query):
    _check_against_specification(graph, query)


@SETTINGS
@given(graph=edge_lists(), query=shaped_queries(PLANNED_CYCLIC, grounded=True))
def test_edgifier_handles_cyclic_queries(graph, query):
    _check_against_specification(graph, query)


@SETTINGS
@given(graph=edge_lists(), query=cyclic_queries())
def test_triangulator_structure_invariants(graph, query):
    store = build_store(graph)
    bound = bind_query(query, store)
    estimator = CardinalityEstimator(build_catalog(store))
    chordification = Triangulator(estimator).plan(bound)

    assert not is_acyclic(query)
    cycles = [c for c in find_cycles(query) if len(c) >= 3]
    # Each k-cycle yields k-3 chords and k-2 triangles.
    expected_chords = sum(len(c) - 3 for c in cycles)
    expected_triangles = sum(len(c) - 2 for c in cycles)
    assert len(chordification.chords) == expected_chords
    assert len(chordification.triangles) == expected_triangles
    assert len(chordification.order) == expected_chords

    # Triangles reference only declared chords and real edges.
    for tri in chordification.triangles:
        assert len(set(tri.vars)) == 3
        for side in tri.sides:
            if side.ref.kind == "chord":
                assert side.ref.index < len(chordification.chords)
            else:
                assert side.ref.index < len(bound.edges)
            assert {side.a, side.b} <= set(tri.vars)


@SETTINGS
@given(graph=edge_lists(), query=acyclic_queries())
def test_estimator_sanity(graph, query):
    """Walks are non-negative, bounded by the label count, and states
    keep cardinalities non-negative."""
    store = build_store(graph)
    bound = bind_query(query, store)
    estimator = CardinalityEstimator(build_catalog(store))
    state = estimator.initial_state()
    for edge in bound.edges:
        walks, state = estimator.estimate_extension(state, edge)
        assert walks >= 0.0
        label_count = estimator.catalog.unigram(edge.p).count
        assert walks <= label_count + 1e-9
        for card in state.cards.values():
            assert card >= 0.0
