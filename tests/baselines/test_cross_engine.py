"""Cross-engine integration: all five engines agree with the oracle.

This is the library's strongest end-to-end guarantee: Wireframe (in all
configurations) and the four baseline stand-ins return identical result
multisets on shared workloads — the property Table 1 implicitly relies
on when comparing only execution times.
"""

import numpy as np
import pytest

from repro.baselines import (
    ColumnarEngine,
    HashJoinEngine,
    IndexNestedLoopEngine,
    NavigationalEngine,
)
from repro.core.engine import WireframeEngine
from repro.core.ideal import enumerate_embeddings_bruteforce
from repro.query.miner import QueryMiner
from repro.query.templates import (
    chain_template,
    cycle_template,
    diamond_template,
    snowflake_template,
    star_template,
)

from tests.conftest import random_store


def all_engines(store, catalog=None):
    return [
        WireframeEngine(store, catalog),
        WireframeEngine(store, catalog, edge_burnback=True),
        WireframeEngine(store, catalog, use_chords=False),
        HashJoinEngine(store, catalog),
        IndexNestedLoopEngine(store, catalog),
        ColumnarEngine(store, catalog),
        NavigationalEngine(store, catalog),
    ]


def assert_all_agree(store, query):
    oracle = sorted(enumerate_embeddings_bruteforce(store, query))
    for engine in all_engines(store):
        result = engine.evaluate(query)
        label = f"{type(engine).__name__}/{getattr(engine, 'edge_burnback', '')}"
        assert sorted(result.rows) == oracle, f"{label} diverged on {query.name}"
        assert result.count == len(oracle)


@pytest.mark.parametrize("seed", range(4))
def test_random_graphs_chain(seed):
    rng = np.random.default_rng(seed)
    store = random_store(rng, num_nodes=10, density=0.2)
    q = chain_template(3).instantiate(["A", "B", "C"], distinct=False)
    assert_all_agree(store, q)


@pytest.mark.parametrize("seed", range(4))
def test_random_graphs_diamond(seed):
    rng = np.random.default_rng(100 + seed)
    store = random_store(rng, num_nodes=9, labels=("A", "B", "C", "D"), density=0.25)
    q = diamond_template().instantiate(["A", "B", "C", "D"], distinct=False)
    assert_all_agree(store, q)


@pytest.mark.parametrize("seed", range(3))
def test_random_graphs_triangle(seed):
    rng = np.random.default_rng(200 + seed)
    store = random_store(rng, num_nodes=8, density=0.3)
    q = cycle_template(3).instantiate(["A", "B", "C"], distinct=False)
    assert_all_agree(store, q)


@pytest.mark.parametrize("seed", range(3))
def test_random_graphs_star(seed):
    rng = np.random.default_rng(300 + seed)
    store = random_store(rng, num_nodes=10, density=0.2)
    q = star_template(3).instantiate(["A", "B", "C"], distinct=False)
    assert_all_agree(store, q)


def test_random_graph_pentagon():
    rng = np.random.default_rng(17)
    store = random_store(
        rng, num_nodes=8, labels=("A", "B", "C", "D", "E"), density=0.3
    )
    q = cycle_template(5).instantiate(["A", "B", "C", "D", "E"], distinct=False)
    assert_all_agree(store, q)


def test_mined_yago_snowflakes_agree(mini_yago, mini_yago_catalog):
    miner = QueryMiner(mini_yago, seed=23, forbidden_labels=["rdf:type"])
    queries = miner.mine(snowflake_template(), count=2)
    for q in queries:
        oracle = sorted(enumerate_embeddings_bruteforce(mini_yago, q))
        for engine in all_engines(mini_yago, mini_yago_catalog):
            assert sorted(engine.evaluate(q).rows) == oracle


def test_mined_yago_diamonds_agree(mini_yago, mini_yago_catalog):
    miner = QueryMiner(mini_yago, seed=31, forbidden_labels=["rdf:type"])
    queries = miner.mine(diamond_template(), count=2)
    for q in queries:
        oracle = sorted(enumerate_embeddings_bruteforce(mini_yago, q))
        for engine in all_engines(mini_yago, mini_yago_catalog):
            assert sorted(engine.evaluate(q).rows) == oracle


def test_paper_queries_on_mini_yago(mini_yago, mini_yago_catalog):
    """Every Table-1 query: all engines equal on the mini dataset."""
    from repro.datasets.paper_queries import paper_queries

    for q in paper_queries():
        counts = {
            type(e).__name__ + str(i): e.evaluate(q).count
            for i, e in enumerate(all_engines(mini_yago, mini_yago_catalog))
        }
        assert len(set(counts.values())) == 1, (q.name, counts)
