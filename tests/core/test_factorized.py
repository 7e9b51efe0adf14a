"""Tests for factorized aggregation (count / marginals / sampling)."""

import collections

import pytest

from repro.core.defactorize import count_embeddings, iter_embeddings
from repro.core.engine import WireframeEngine
from repro.core.factorized import sample_embedding, variable_marginals
from repro.core.generation import generate_answer_graph
from repro.core.ideal import enumerate_embeddings_bruteforce
from repro.datasets.motifs import (
    fan_chain_graph,
    figure1_graph,
    figure1_query,
    figure4_graph,
    figure4_query,
)
from repro.errors import QueryError
from repro.graph.builder import store_from_edges
from repro.planner.plan import AGPlan
from repro.query.algebra import bind_query
from repro.query.parser import parse_sparql
from repro.query.templates import snowflake_template


def make_ag(store, query):
    bound = bind_query(query, store)
    n = len(bound.edges)
    plan = AGPlan(tuple(range(n)), (0.0,) * n, 0.0)
    ag, _ = generate_answer_graph(bound, plan)
    return ag


def test_fig1_count():
    ag = make_ag(figure1_graph(), figure1_query())
    assert count_embeddings(ag) == 12


def test_count_equals_enumeration_on_fan_chain():
    store = fan_chain_graph(fan_in=7, fan_out=9, hub_pairs=3)
    ag = make_ag(store, figure1_query())
    assert count_embeddings(ag) == sum(1 for _ in iter_embeddings(ag)) == 3 * 7 * 9


def test_count_on_snowflake(mini_yago, mini_yago_catalog):
    from repro.datasets.paper_queries import paper_snowflake_queries

    engine = WireframeEngine(mini_yago, mini_yago_catalog)
    for q in paper_snowflake_queries()[:3]:
        detail = engine.evaluate_detailed(q, materialize=False)
        assert (
            count_embeddings(detail.answer_graph) == detail.count
        ), q.name


def test_cyclic_query_rejected():
    """Message passing needs a tree; counting does not."""
    ag = make_ag(figure4_graph(), figure4_query())
    assert count_embeddings(ag) == sum(1 for _ in iter_embeddings(ag))
    with pytest.raises(QueryError):
        variable_marginals(ag)
    with pytest.raises(QueryError):
        sample_embedding(ag)


def test_empty_ag():
    store = store_from_edges({"A": [("1", "2")], "B": [("8", "9")]})
    ag = make_ag(store, parse_sparql("select * where { ?x A ?y . ?y B ?z }"))
    assert count_embeddings(ag) == 0
    assert sample_embedding(ag) is None
    assert all(not m for m in variable_marginals(ag).values())


def test_marginals_match_enumeration():
    store = figure1_graph()
    ag = make_ag(store, figure1_query())
    marginals = variable_marginals(ag)
    embeddings = enumerate_embeddings_bruteforce(store, figure1_query())
    for var in range(4):
        expected = collections.Counter(emb[var] for emb in embeddings)
        assert marginals[var] == dict(expected), var


def test_marginals_sum_to_total():
    store = fan_chain_graph(fan_in=4, fan_out=6, hub_pairs=2)
    ag = make_ag(store, figure1_query())
    total = count_embeddings(ag)
    marginals = variable_marginals(ag)
    for var, table in marginals.items():
        assert sum(table.values()) == total, var


def test_marginals_on_branching_query(mini_yago):
    q = snowflake_template().instantiate(
        [
            "hasChild", "influences", "actedIn",
            "actedIn", "wasBornIn",
            "created", "actedIn",
            "hasDuration", "wasCreatedOnDate",
        ]
    )
    ag = make_ag(mini_yago, q)
    total = count_embeddings(ag)
    marginals = variable_marginals(ag)
    for var, table in marginals.items():
        assert sum(table.values()) == total, var
    oracle = enumerate_embeddings_bruteforce(mini_yago, q)
    assert total == len(oracle)
    var0 = collections.Counter(emb[0] for emb in oracle)
    assert marginals[0] == dict(var0)


def test_samples_are_valid_embeddings():
    store = figure1_graph()
    ag = make_ag(store, figure1_query())
    valid = set(enumerate_embeddings_bruteforce(store, figure1_query()))
    for seed in range(20):
        sample = sample_embedding(ag, seed)
        assert sample in valid


#: A branching tree whose subtrees differ in size: a1 has 3 + 1 rows
#: below its two ?b values and one ?d, a2 one row below ?b times two
#: ?d — 6 embeddings, which a sampler that picked a child uniformly
#: instead of by its subtree's rows would not draw evenly.
UNEVEN_TREE = (
    {
        "A": [("a1", "b1"), ("a1", "b2"), ("a2", "b3")],
        "B": [("b1", "c1"), ("b1", "c2"), ("b1", "c3"), ("b2", "c4"), ("b3", "c5")],
        "C": [("a1", "d1"), ("a2", "d2"), ("a2", "d3")],
    },
    "select * where { ?a A ?b . ?b B ?c . ?a C ?d }",
)


def test_sampling_covers_support_roughly_uniformly():
    import numpy as np

    cases = [
        (fan_chain_graph(fan_in=2, fan_out=2, hub_pairs=1), figure1_query()),  # 4 embeddings
        (store_from_edges(UNEVEN_TREE[0]), parse_sparql(UNEVEN_TREE[1])),  # 6 embeddings
    ]
    for store, query in cases:
        ag = make_ag(store, query)
        support = set(enumerate_embeddings_bruteforce(store, query))
        rng = np.random.default_rng(0)
        draws = 100 * len(support)
        counts = collections.Counter(sample_embedding(ag, rng) for _ in range(draws))
        assert set(counts) == support  # every embedding reachable, nothing else
        for value in counts.values():
            assert 50 <= value <= 150  # 100 expected; generous tolerance


def test_marginals_weigh_each_join_direction_once(monkeypatch, mini_yago):
    """All marginals together are one pass per join direction: no
    ``(variable, parent)`` weight map of the forest is computed twice."""
    from repro.core import defactorize
    from repro.datasets.paper_queries import paper_snowflake_queries

    query = paper_snowflake_queries()[0]
    ag = WireframeEngine(mini_yago).evaluate_detailed(query, materialize=False).answer_graph
    weighed = collections.Counter()
    factors = defactorize._Forest.factors

    def counted(forest, var, up):
        if up is not None:
            weighed[var, up] += 1
        return factors(forest, var, up)

    monkeypatch.setattr(defactorize._Forest, "factors", counted)
    variable_marginals(ag)
    directions = {(e.o_var, e.s_var) for e in ag.bound.edges}
    directions |= {(s, o) for o, s in directions}
    assert set(weighed) == directions  # a tree, rooted at every variable
    assert set(weighed.values()) == {1}


def test_constant_component_count():
    # Components joined only via the constant "k": counts multiply.
    store = store_from_edges(
        {"A": [("1", "k"), ("2", "k")], "B": [("k", "8"), ("k", "9"), ("k", "7")]}
    )
    q = parse_sparql("select * where { ?x A k . k B ?z }")
    ag = make_ag(store, q)
    assert count_embeddings(ag) == 6
    sample = sample_embedding(ag, 1)
    assert sample is not None and len(sample) == 2


def test_factorized_count_much_cheaper_than_enumeration():
    """The factorization payoff: counting scales with |AG|, not
    |embeddings|."""
    import time

    store = fan_chain_graph(fan_in=120, fan_out=120, hub_pairs=3)
    ag = make_ag(store, figure1_query())
    t0 = time.perf_counter()
    fast = count_embeddings(ag)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    slow = sum(1 for _ in iter_embeddings(ag))
    t_slow = time.perf_counter() - t0
    assert fast == slow == 3 * 120 * 120
    assert t_fast < t_slow
