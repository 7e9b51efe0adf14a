"""Figure 2: interleaved edge extension and cascading node burnback.

Fig. 2 walks through answer-graph generation on the Fig. 1 graph:
extension of each query edge followed by burnback, with one cascade
(10 → 6 → 4). This bench measures phase 1 in isolation on
burnback-heavy graphs — many decoy branches that extension retrieves
and burnback must then cascade away — and records how much of the
retrieved AG the burnback removes. It runs the paper's phase 1
(``lookahead=False``): with look-ahead the decoys' B-edges are dropped
as they are retrieved and only half of the cascade is left to burn.
"""

import pytest

from repro.core.generation import generate_answer_graph
from repro.graph.builder import store_from_edges
from repro.planner.edgifier import Edgifier
from repro.query.algebra import bind_query
from repro.datasets.motifs import figure1_query
from repro.stats.catalog import build_catalog
from repro.stats.estimator import CardinalityEstimator


def decoy_chain_graph(width: int, decoy_depth: int):
    """`width` complete chains plus `width × decoy_depth` dead ends."""
    edges_a, edges_b, edges_c = [], [], []
    for i in range(width):
        edges_a.append((f"w{i}", f"x{i}"))
        edges_b.append((f"x{i}", f"y{i}"))
        edges_c.append((f"y{i}", f"z{i}"))
        # Dead-end branches: A and B edges that never reach a C edge,
        # so burnback must cascade each one away.
        for j in range(decoy_depth):
            edges_a.append((f"dw{i}_{j}", f"dx{i}_{j}"))
            edges_b.append((f"dx{i}_{j}", f"dy{i}_{j}"))
    return store_from_edges({"A": edges_a, "B": edges_b, "C": edges_c})


@pytest.mark.parametrize("decoys", (0, 4, 16))
def test_fig2_generation_with_burnback(benchmark, decoys):
    store = decoy_chain_graph(width=40, decoy_depth=decoys)
    query = figure1_query()
    bound = bind_query(query, store)
    estimator = CardinalityEstimator(build_catalog(store))
    plan = Edgifier(estimator).plan(bound)

    def run():
        return generate_answer_graph(bound, plan, lookahead=False)

    ag, stats = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert ag.size == 40 * 3  # only the complete chains survive
    benchmark.extra_info["edge_walks"] = stats.edge_walks
    benchmark.extra_info["burned_nodes"] = stats.burned_nodes


def test_fig2_cascade_depth_is_bounded_by_walks():
    """Burnback is amortized (§4.I): the cascade can never remove more
    node-incidences than extensions created."""
    store = decoy_chain_graph(width=10, decoy_depth=8)
    bound = bind_query(figure1_query(), store)
    estimator = CardinalityEstimator(build_catalog(store))
    plan = Edgifier(estimator).plan(bound)
    _, stats = generate_answer_graph(bound, plan, lookahead=False)
    assert stats.burned_nodes <= 2 * stats.edge_walks
