"""Ablation: edge burnback's cost/benefit on cyclic queries (§6).

"The additional overhead of edge burnback must be balanced off against
the benefit of obtaining the iAG versus a larger, non-ideal AG." This
bench measures both sides on the diamond workload: phase-1 time with
and without edge burnback, the AG shrinkage it buys, and the phase-2
(defactorization) time from each AG. Phase 1 is timed as the paper
runs it (``lookahead=False``); the AG sizes and counts asserted here do
not depend on that switch.
"""

import pytest

from repro.core.defactorize import count_embeddings
from repro.core.engine import WireframeEngine
from repro.datasets.paper_queries import paper_diamond_queries

QUERIES = {q.name: q for q in paper_diamond_queries()}


@pytest.mark.parametrize("query_name", sorted(QUERIES))
@pytest.mark.parametrize("edge_burnback", (False, True), ids=["node-bb", "edge-bb"])
def test_ablation_phase1_cost(benchmark, store, catalog, query_name, edge_burnback):
    engine = WireframeEngine(store, catalog, edge_burnback=edge_burnback)
    query = QUERIES[query_name]
    bound, ag_plan, chordification = engine.plan(query)

    from repro.core.generation import generate_answer_graph

    def run():
        return generate_answer_graph(
            bound, ag_plan, chordification,
            edge_burnback_enabled=edge_burnback,
            lookahead=False,
        )

    ag, stats = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    benchmark.extra_info["edge_burnback"] = edge_burnback
    benchmark.extra_info["ag_size"] = ag.size
    benchmark.extra_info["spurious_removed"] = stats.spurious_pairs_removed


@pytest.mark.parametrize("query_name", sorted(QUERIES))
@pytest.mark.parametrize("edge_burnback", (False, True), ids=["node-bb", "edge-bb"])
def test_ablation_phase2_cost(benchmark, store, catalog, query_name, edge_burnback):
    """Defactorization from the (smaller) iAG vs the non-ideal AG."""
    engine = WireframeEngine(store, catalog, edge_burnback=edge_burnback)
    query = QUERIES[query_name]
    detail = engine.evaluate_detailed(query, materialize=False)
    ag, order = detail.answer_graph, detail.embedding_plan.order

    count = benchmark.pedantic(
        lambda: count_embeddings(ag, order),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert count == detail.count
    benchmark.extra_info["ag_size"] = detail.ag_size
    benchmark.extra_info["embeddings"] = count


def test_edge_burnback_never_changes_results(store, catalog):
    plain = WireframeEngine(store, catalog)
    burned = WireframeEngine(store, catalog, edge_burnback=True)
    for query in QUERIES.values():
        a = plain.evaluate(query, materialize=False).count
        b = burned.evaluate(query, materialize=False).count
        assert a == b, query.name
