"""Ablation: does the cost-based Edgifier matter?

DESIGN.md calls out the planner as a design choice to ablate. This
bench executes answer-graph generation under three plans on the paper's
snowflake workload:

* the Edgifier's DP plan,
* the textual (as-written) edge order, and
* an adversarial plan (the *worst* order under the cost model),

and compares actual edge walks. The DP plan should never walk more
edges than the adversarial one and should generally track the best.
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


@pytest.mark.parametrize("query_name", sorted(QUERIES))
@pytest.mark.parametrize("plan_kind", ("dp", "textual", "adversarial"))
def test_ablation_plan_quality(benchmark, store, catalog, plan_kind, query_name):
    engine = WireframeEngine(store, catalog)
    query = QUERIES[query_name]
    bound, dp_plan, _ = engine.plan(query)
    if plan_kind == "dp":
        plan = dp_plan
    elif plan_kind == "textual":
        plan = _manual_plan(range(len(bound.edges)))
    else:
        plan = _manual_plan(_adversarial_order(engine, bound))

    def run():
        return generate_answer_graph(bound, plan)

    ag, stats = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    benchmark.extra_info["plan"] = plan_kind
    benchmark.extra_info["edge_walks"] = stats.edge_walks
    benchmark.extra_info["ag_size"] = ag.size


def test_dp_plan_walks_not_worse_than_adversarial(store, catalog):
    engine = WireframeEngine(store, catalog)
    for query in QUERIES.values():
        bound, dp_plan, _ = engine.plan(query)
        _, dp_stats = generate_answer_graph(bound, dp_plan)
        adversarial = _manual_plan(_adversarial_order(engine, bound))
        _, bad_stats = generate_answer_graph(bound, adversarial)
        assert dp_stats.edge_walks <= bad_stats.edge_walks, query.name


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
