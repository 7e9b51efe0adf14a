"""Property-based cross-engine agreement on random inputs."""

from hypothesis import given, settings

from repro.baselines import (
    ColumnarEngine,
    HashJoinEngine,
    IndexNestedLoopEngine,
    NavigationalEngine,
)
from repro.core.ideal import enumerate_embeddings_bruteforce

from tests.properties.strategies import (
    acyclic_queries,
    build_store,
    cyclic_queries,
    edge_lists,
)

SETTINGS = settings(max_examples=40, deadline=None)

BASELINES = (
    HashJoinEngine,
    IndexNestedLoopEngine,
    ColumnarEngine,
    NavigationalEngine,
)


@SETTINGS
@given(graph=edge_lists(), query=acyclic_queries())
def test_baselines_match_oracle_acyclic(graph, query):
    store = build_store(graph)
    oracle = sorted(enumerate_embeddings_bruteforce(store, query))
    for engine_cls in BASELINES:
        rows = engine_cls(store).evaluate(query).rows
        assert sorted(rows) == oracle, engine_cls.__name__


@SETTINGS
@given(graph=edge_lists(), query=cyclic_queries())
def test_baselines_match_oracle_cyclic(graph, query):
    store = build_store(graph)
    oracle = sorted(enumerate_embeddings_bruteforce(store, query))
    for engine_cls in BASELINES:
        rows = engine_cls(store).evaluate(query).rows
        assert sorted(rows) == oracle, engine_cls.__name__


@SETTINGS
@given(graph=edge_lists(), query=acyclic_queries())
def test_projected_distinct_agreement(graph, query):
    from repro.core.engine import WireframeEngine
    from repro.query.model import ConjunctiveQuery

    store = build_store(graph)
    projected = ConjunctiveQuery(
        query.edges, projection=[query.variables[0]], distinct=True
    )
    reference = None
    engines = [WireframeEngine(store)] + [cls(store) for cls in BASELINES]
    for engine in engines:
        rows = sorted(engine.evaluate(projected).rows)
        if reference is None:
            reference = rows
        assert rows == reference, type(engine).__name__

