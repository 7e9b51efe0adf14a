"""Per-engine behaviour tests for the four baseline stand-ins."""

import time

import pytest

from repro.baselines import (
    ColumnarEngine,
    HashJoinEngine,
    IndexNestedLoopEngine,
    NavigationalEngine,
)
from repro.core.ideal import enumerate_embeddings_bruteforce
from repro.datasets.motifs import figure1_graph, figure1_query, figure4_graph, figure4_query
from repro.errors import EvaluationTimeout, QueryError
from repro.graph.builder import store_from_edges
from repro.query.model import ConjunctiveQuery
from repro.query.parser import parse_sparql
from repro.utils.deadline import Deadline

ENGINES = [HashJoinEngine, IndexNestedLoopEngine, ColumnarEngine, NavigationalEngine]
ENGINE_IDS = ["PG", "VT", "MD", "NJ"]


@pytest.mark.parametrize("engine_cls", ENGINES, ids=ENGINE_IDS)
def test_fig1_matches_oracle(engine_cls):
    store = figure1_graph()
    result = engine_cls(store).evaluate(figure1_query())
    oracle = enumerate_embeddings_bruteforce(store, figure1_query())
    assert result.count == 12
    assert sorted(result.rows) == sorted(oracle)


@pytest.mark.parametrize("engine_cls", ENGINES, ids=ENGINE_IDS)
def test_fig4_matches_oracle(engine_cls):
    store = figure4_graph()
    result = engine_cls(store).evaluate(figure4_query())
    oracle = enumerate_embeddings_bruteforce(store, figure4_query())
    assert sorted(result.rows) == sorted(oracle)


@pytest.mark.parametrize("engine_cls", ENGINES, ids=ENGINE_IDS)
def test_projection_and_distinct(engine_cls):
    store = figure1_graph()
    q = parse_sparql(
        "select distinct ?x where { ?w :A ?x . ?x :B ?y . ?y :C ?z }"
    )
    result = engine_cls(store).evaluate(q)
    assert result.count == 1
    assert result.rows == [(store.dictionary.lookup("5"),)]


@pytest.mark.parametrize("engine_cls", ENGINES, ids=ENGINE_IDS)
def test_projection_without_distinct(engine_cls):
    store = figure1_graph()
    q = parse_sparql("select ?x where { ?w :A ?x . ?x :B ?y . ?y :C ?z }")
    result = engine_cls(store).evaluate(q)
    assert result.count == 12


@pytest.mark.parametrize("engine_cls", ENGINES, ids=ENGINE_IDS)
def test_empty_result(engine_cls):
    store = figure1_graph()
    q = parse_sparql("select * where { ?a A ?b . ?b A ?c }")
    result = engine_cls(store).evaluate(q)
    assert result.count == 0
    assert result.rows == []


@pytest.mark.parametrize(
    "engine_cls",
    ENGINES + [__import__("repro").WireframeEngine],
    ids=ENGINE_IDS + ["WF"],
)
def test_unknown_label_short_circuits(engine_cls):
    store = figure1_graph()
    q = parse_sparql("select * where { ?a nolabel ?b }")
    result = engine_cls(store).evaluate(q)
    assert result.count == 0
    # Joined only through a constant the store does not know: empty,
    # not a disconnected plan.
    q = parse_sparql("select * where { ?a A zz . zz A ?b }")
    assert engine_cls(store).evaluate(q).rows == []
    assert engine_cls(store).evaluate(q, materialize=False).count == 0


@pytest.mark.parametrize("engine_cls", ENGINES, ids=ENGINE_IDS)
def test_constants(engine_cls):
    store = store_from_edges({"A": [("1", "2"), ("3", "2")], "B": [("2", "5")]})
    q = parse_sparql("select * where { ?x A 2 . 2 B ?z }")
    result = engine_cls(store).evaluate(q)
    oracle = enumerate_embeddings_bruteforce(store, q)
    assert sorted(result.rows) == sorted(oracle)
    assert result.count == 2


@pytest.mark.parametrize("engine_cls", ENGINES, ids=ENGINE_IDS)
def test_self_loop(engine_cls):
    store = store_from_edges({"A": [("1", "1"), ("2", "3")], "B": [("1", "5")]})
    q = parse_sparql("select * where { ?x A ?x . ?x B ?y }")
    result = engine_cls(store).evaluate(q)
    oracle = enumerate_embeddings_bruteforce(store, q)
    assert sorted(result.rows) == sorted(oracle)


@pytest.mark.parametrize("engine_cls", ENGINES, ids=ENGINE_IDS)
def test_parallel_edges(engine_cls):
    store = store_from_edges(
        {"A": [("1", "2"), ("3", "4")], "B": [("1", "2"), ("5", "6")]}
    )
    q = ConjunctiveQuery([("?x", "A", "?y"), ("?x", "B", "?y")])
    result = engine_cls(store).evaluate(q)
    oracle = enumerate_embeddings_bruteforce(store, q)
    assert sorted(result.rows) == sorted(oracle)


@pytest.mark.parametrize("engine_cls", ENGINES, ids=ENGINE_IDS)
def test_count_only(engine_cls):
    store = figure1_graph()
    result = engine_cls(store).evaluate(figure1_query(), materialize=False)
    assert result.rows is None
    assert result.count == 12


@pytest.mark.parametrize("engine_cls", ENGINES, ids=ENGINE_IDS)
def test_disconnected_rejected(engine_cls):
    store = figure1_graph()
    q = ConjunctiveQuery([("?a", "A", "?b"), ("?c", "B", "?d")])
    with pytest.raises(QueryError):
        engine_cls(store).evaluate(q)


@pytest.mark.parametrize("engine_cls", ENGINES, ids=ENGINE_IDS)
def test_deadline_respected(engine_cls):
    store = figure1_graph()
    deadline = Deadline(0.001, stride=1)
    time.sleep(0.01)
    with pytest.raises(EvaluationTimeout):
        engine_cls(store).evaluate(figure1_query(), deadline=deadline)


def test_hash_join_reports_peak_intermediate():
    store = figure1_graph()
    result = HashJoinEngine(store).evaluate(figure1_query())
    assert result.stats["peak_intermediate"] >= 12


def test_inlj_reports_probes():
    store = figure1_graph()
    result = IndexNestedLoopEngine(store).evaluate(figure1_query())
    assert result.stats["index_probes"] > 0


def test_navigational_reports_expansions():
    store = figure1_graph()
    result = NavigationalEngine(store).evaluate(figure1_query())
    assert result.stats["expansions"] >= 12


def test_navigational_order_is_rarest_first():
    store = figure1_graph()  # B is rarest (3 edges)
    from repro.query.algebra import bind_query

    engine = NavigationalEngine(store)
    bound = bind_query(figure1_query(), store)
    order = engine.join_order(bound)
    assert order[0] == 1


def test_columnar_handles_star_join():
    # Two edges sharing their *subject* exercise the ss-key join path.
    store = store_from_edges(
        {"A": [("1", "2"), ("1", "3"), ("4", "5")], "B": [("1", "9"), ("4", "8")]}
    )
    q = parse_sparql("select * where { ?x A ?y . ?x B ?z }")
    result = ColumnarEngine(store).evaluate(q)
    oracle = enumerate_embeddings_bruteforce(store, q)
    assert sorted(result.rows) == sorted(oracle)


def test_columnar_pair_key_join():
    # Closing edge with both endpoints bound exercises the pair-key path.
    store = figure4_graph()
    result = ColumnarEngine(store).evaluate(figure4_query())
    assert result.count == 2


@pytest.mark.parametrize(
    "engine_cls",
    ENGINES + [__import__("repro").WireframeEngine],
    ids=ENGINE_IDS + ["WF"],
)
def test_fully_ground_edge(engine_cls):
    """An all-constant triple pattern acts as a boolean guard."""
    store = store_from_edges(
        {"A": [("1", "2"), ("3", "4")], "B": [("2", "5"), ("2", "6")]}
    )
    true_guard = parse_sparql("select * where { 1 A 2 . 2 B ?z }")
    false_guard = parse_sparql("select * where { 1 A 4 . 4 B ?z }")
    engine = engine_cls(store)
    d = store.dictionary.lookup
    assert sorted(engine.evaluate(true_guard).rows) == sorted(
        [(d("5"),), (d("6"),)]
    )
    assert engine.evaluate(false_guard).count == 0
