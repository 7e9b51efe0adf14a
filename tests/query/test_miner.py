"""Tests for the witness-walk query miner."""

import pytest

from repro.core.ideal import has_any_embedding
from repro.datasets.motifs import figure1_graph
from repro.errors import DatasetError, QueryError
from repro.graph.builder import store_from_edges
from repro.query.miner import QueryMiner, _walk_order
from repro.query.templates import (
    QueryTemplate,
    TemplateEdge,
    chain_template,
    diamond_template,
)
from repro.utils.domains import MAX_REPEAT


def test_mined_chain_queries_are_nonempty():
    store = figure1_graph()
    miner = QueryMiner(store, seed=1)
    queries = miner.mine(chain_template(2), count=2)
    assert len(queries) == 2
    for q in queries:
        assert has_any_embedding(store, q)


def test_mined_queries_are_distinct_assignments():
    store = figure1_graph()
    miner = QueryMiner(store, seed=3)
    queries = miner.mine(chain_template(1), count=3)
    labels = {tuple(e.predicate for e in q.edges) for q in queries}
    assert len(labels) == 3


def test_mined_yago_snowflakes_nonempty(mini_yago):
    from repro.query.templates import snowflake_template

    miner = QueryMiner(mini_yago, seed=11, forbidden_labels=["rdf:type"])
    queries = miner.mine(snowflake_template(), count=3)
    for q in queries:
        assert has_any_embedding(mini_yago, q)
        assert all(e.predicate != "rdf:type" for e in q.edges)


def test_mined_diamonds_nonempty(mini_yago):
    miner = QueryMiner(mini_yago, seed=5, forbidden_labels=["rdf:type"])
    queries = miner.mine(diamond_template(), count=2)
    for q in queries:
        assert has_any_embedding(mini_yago, q)


def test_seed_reproducibility(mini_yago):
    q1 = QueryMiner(mini_yago, seed=9).mine(chain_template(3), count=2)
    q2 = QueryMiner(mini_yago, seed=9).mine(chain_template(3), count=2)
    assert [q.to_sparql() for q in q1] == [q.to_sparql() for q in q2]


def test_distinct_labels_option(mini_yago):
    miner = QueryMiner(mini_yago, seed=2)
    queries = miner.mine(chain_template(3), count=2, distinct_labels=True)
    for q in queries:
        labels = [e.predicate for e in q.edges]
        assert len(set(labels)) == len(labels)


def test_budget_exhaustion_raises():
    # A one-edge graph cannot yield 5 distinct single-label queries.
    store = store_from_edges({"A": [("1", "2")]})
    miner = QueryMiner(store, seed=0)
    with pytest.raises(DatasetError):
        miner.mine(chain_template(1), count=5, max_attempts=50)


def test_invalid_count():
    store = store_from_edges({"A": [("1", "2")]})
    with pytest.raises(QueryError):
        QueryMiner(store).mine(chain_template(1), count=0)


def test_count_above_the_bound_is_refused_before_mining():
    """The default budget is 400 attempts per query: an unbounded count
    would mine for as long as the count is large."""
    store = store_from_edges({"A": [("1", "2")]})
    for count in (MAX_REPEAT + 1, 10**20):
        with pytest.raises(QueryError, match="count must be in"):
            QueryMiner(store).mine(chain_template(1), count=count)


def test_walk_order_connectivity():
    t = diamond_template()
    order = _walk_order(t)
    bound = set()
    for i, edge in enumerate(order):
        if i > 0:
            assert edge.subject in bound or edge.object in bound
        bound |= {edge.subject, edge.object}


def test_walk_order_disconnected_template_rejected():
    t = QueryTemplate(
        "broken",
        (TemplateEdge("a", 0, "b"), TemplateEdge("c", 1, "d")),
    )
    with pytest.raises(QueryError):
        _walk_order(t)


def test_dead_end_walks_return_none():
    # Graph where node 2 has no outgoing edges: chains of length 2
    # starting at the only edge must dead-end sometimes but the miner
    # simply retries; a direct sample starting from a sink yields None.
    store = store_from_edges({"A": [("1", "2")]})
    miner = QueryMiner(store, seed=0)
    assert miner.sample_assignment(chain_template(2)) is None
