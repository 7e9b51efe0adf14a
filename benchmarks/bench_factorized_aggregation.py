"""Extension bench: aggregation on the factorized AG vs enumeration.

The answer graph is a factorized representation of the answer set
(§2); this bench quantifies the payoff beyond tuple retrieval: counting
the answers (pool sizes multiplied per skeleton assignment, no row
built) and computing per-variable marginals directly on the AG cost far
less than any enumeration, which pays O(|embeddings|). The gap is exactly the
factorization ratio the paper's Table 1 reports.
"""

import pytest

from repro.core.defactorize import count_embeddings, iter_embeddings
from repro.core.engine import WireframeEngine
from repro.core.factorized import sample_embedding, variable_marginals
from repro.datasets.motifs import fan_chain_graph, figure1_query
from repro.datasets.paper_queries import paper_snowflake_queries

QUERIES = {q.name: q for q in paper_snowflake_queries()[:3]}


def _ag_for(store, catalog, query):
    detail = WireframeEngine(store, catalog).evaluate_detailed(
        query, materialize=False
    )
    return detail.answer_graph, detail.count


@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_count_factorized(benchmark, store, catalog, query_name):
    ag, expected = _ag_for(store, catalog, QUERIES[query_name])
    count = benchmark.pedantic(
        lambda: count_embeddings(ag),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert count == expected
    benchmark.extra_info["embeddings"] = expected
    benchmark.extra_info["ag_size"] = ag.size


@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_count_by_enumeration(benchmark, store, catalog, query_name):
    ag, expected = _ag_for(store, catalog, QUERIES[query_name])
    count = benchmark.pedantic(
        lambda: sum(1 for _ in iter_embeddings(ag)),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert count == expected


@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_marginals_factorized(benchmark, store, catalog, query_name):
    ag, expected = _ag_for(store, catalog, QUERIES[query_name])
    marginals = benchmark.pedantic(
        lambda: variable_marginals(ag),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert sum(marginals[0].values()) == expected


@pytest.mark.parametrize("fan", (32, 128))
def test_count_scaling_in_fan(benchmark, fan):
    """Counting cost stays flat while |embeddings| grows as fan²."""
    store = fan_chain_graph(fan_in=fan, fan_out=fan, hub_pairs=2)
    detail = WireframeEngine(store).evaluate_detailed(
        figure1_query(), materialize=False
    )
    count = benchmark.pedantic(
        lambda: count_embeddings(detail.answer_graph),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert count == 2 * fan * fan
    benchmark.extra_info["embeddings"] = count
    benchmark.extra_info["ag_size"] = detail.ag_size


def test_sampling_without_enumeration(store, catalog):
    query = QUERIES["CQ_S#1"]
    ag, _ = _ag_for(store, catalog, query)
    sample = sample_embedding(ag, 0)
    assert sample is not None and len(sample) == 10
