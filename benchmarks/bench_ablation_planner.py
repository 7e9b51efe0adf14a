"""Ablation: does the cost-based Edgifier matter?

DESIGN.md calls out the planner as a design choice to ablate. This
bench executes answer-graph generation under three plans on the paper's
snowflake workload:

* the Edgifier's DP plan,
* the textual (as-written) edge order, and
* an adversarial plan (the *worst* order under the cost model),

and compares actual edge walks. The DP plan should never walk more
edges than the adversarial one and should generally track the best.

That holds in the phase 1 the cost model describes, the paper's
(``lookahead=False``), and is asserted there. In the default setting the
engine skips work the model still charges for: look-ahead flattens the
orders (at scale 2.0 the adversarial order falls from ~27k walks to
~5k, the DP plan from ~7.5k to ~3.5k) and the model's ranking of what
is left stops holding — at smoke scale CQ_S#1 walks 623 edges along the
DP plan and 506 along the "adversarial" one. So the same assertion runs
in the default setting as an expected failure, to turn up the day the
estimator learns the rule (ROADMAP: the estimator follow-up), and what
*is* asserted of the default is that look-ahead never costs a plan
walks: on every paper query and all three orders it walks no more than
the paper's phase 1 and leaves the same answer graph.
"""

import itertools

import pytest

from repro.core.engine import WireframeEngine
from repro.core.generation import generate_answer_graph
from repro.planner.cost import cost_of_order
from repro.planner.edgifier import greedy_plan
from repro.planner.plan import AGPlan, validate_connected_order
from repro.datasets.paper_queries import paper_snowflake_queries

QUERIES = {q.name: q for q in paper_snowflake_queries()}


def _adversarial_order(engine, bound):
    """Worst connected order under the cost model (greedy max)."""
    order = greedy_plan(engine.estimator.compile(bound.edges), pick=max).order
    validate_connected_order(order, [e.term_tokens() for e in bound.edges])
    return order


def _manual_plan(order):
    return AGPlan(tuple(order), (0.0,) * len(order), 0.0)


def _plans(engine, bound, dp_plan):
    return {
        "dp": dp_plan,
        "textual": _manual_plan(range(len(bound.edges))),
        "adversarial": _manual_plan(_adversarial_order(engine, bound)),
    }


@pytest.mark.parametrize("query_name", sorted(QUERIES))
@pytest.mark.parametrize("plan_kind", ("dp", "textual", "adversarial"))
def test_ablation_plan_quality(benchmark, store, catalog, plan_kind, query_name):
    engine = WireframeEngine(store, catalog)
    query = QUERIES[query_name]
    bound, dp_plan, _ = engine.plan(query)
    plan = _plans(engine, bound, dp_plan)[plan_kind]

    def run():
        return generate_answer_graph(bound, plan)

    ag, stats = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    benchmark.extra_info["plan"] = plan_kind
    benchmark.extra_info["edge_walks"] = stats.edge_walks
    benchmark.extra_info["ag_size"] = ag.size


@pytest.mark.parametrize(
    "lookahead",
    [
        False,
        pytest.param(
            True,
            marks=pytest.mark.xfail(
                reason="the estimator does not model look-ahead yet (ROADMAP)",
                strict=False,
            ),
        ),
    ],
    ids=["paper", "default"],
)
def test_dp_plan_walks_not_worse_than_adversarial(store, catalog, lookahead):
    engine = WireframeEngine(store, catalog)
    for query in QUERIES.values():
        bound, dp_plan, _ = engine.plan(query)
        plans = _plans(engine, bound, dp_plan)
        _, dp_stats = generate_answer_graph(bound, plans["dp"], lookahead=lookahead)
        _, bad_stats = generate_answer_graph(
            bound, plans["adversarial"], lookahead=lookahead
        )
        assert dp_stats.edge_walks <= bad_stats.edge_walks, query.name


def test_lookahead_never_costs_a_plan_walks(store, catalog):
    """The default phase 1 against the paper's, plan by plan."""
    engine = WireframeEngine(store, catalog)
    for query in QUERIES.values():
        bound, dp_plan, _ = engine.plan(query)
        for kind, plan in _plans(engine, bound, dp_plan).items():
            ag, stats = generate_answer_graph(bound, plan)
            paper_ag, paper = generate_answer_graph(bound, plan, lookahead=False)
            assert stats.edge_walks <= paper.edge_walks, (query.name, kind)
            assert ag.size == paper_ag.size, (query.name, kind)


def test_estimated_cost_orders_plans_correctly(store, catalog):
    """Sanity for the cost model on small sub-queries: among all
    connected orders of a 4-edge sub-snowflake, the DP's choice has
    minimal estimated cost."""
    from repro.query.model import ConjunctiveQuery
    from repro.query.algebra import bind_query

    query = ConjunctiveQuery(
        list(QUERIES["CQ_S#2"].edges[:4]), name="sub-snowflake"
    )
    engine = WireframeEngine(store, catalog)
    bound = bind_query(query, store)
    plan = engine.edgifier.plan(bound)
    tokens = [e.term_tokens() for e in bound.edges]
    best = float("inf")
    for perm in itertools.permutations(range(4)):
        try:
            validate_connected_order(list(perm), tokens)
        except ValueError:
            continue
        total, _ = cost_of_order(bound, engine.estimator, list(perm))
        best = min(best, total)
    assert plan.estimated_cost <= best * 1.5 + 1e-6
