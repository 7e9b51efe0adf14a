"""Tests for the end-to-end WireframeEngine."""

import pytest

from repro.core.engine import WireframeEngine
from repro.core.generation import GenerationTrace
from repro.core.ideal import enumerate_embeddings_bruteforce, ideal_answer_graph
from repro.datasets.motifs import (
    figure1_graph,
    figure1_query,
    figure4_graph,
    figure4_query,
)
from repro.errors import EvaluationTimeout, QueryError
from repro.query.model import ConjunctiveQuery
from repro.query.parser import parse_sparql
from repro.utils.deadline import Deadline


def test_acyclic_end_to_end():
    store = figure1_graph()
    engine = WireframeEngine(store)
    result = engine.evaluate_detailed(figure1_query())
    assert result.count == 12
    assert result.ag_size == 8
    assert sorted(result.rows) == sorted(
        enumerate_embeddings_bruteforce(store, figure1_query())
    )
    assert result.phase1_seconds >= 0 and result.phase2_seconds >= 0


def test_cyclic_without_edge_burnback_default():
    store = figure4_graph()
    engine = WireframeEngine(store)
    result = engine.evaluate_detailed(figure4_query())
    assert result.count == 2
    assert result.ag_size == 10  # non-ideal AG, as in the paper's runs
    assert len(result.chordification.chords) == 1


def test_cyclic_with_edge_burnback_ideal():
    store = figure4_graph()
    engine = WireframeEngine(store, edge_burnback=True)
    result = engine.evaluate_detailed(figure4_query())
    assert result.count == 2
    assert result.ag_size == 8
    ideal = ideal_answer_graph(store, figure4_query())
    assert result.ag_size == sum(len(p) for p in ideal.values())


def test_cyclic_without_chords():
    store = figure4_graph()
    engine = WireframeEngine(store, use_chords=False)
    result = engine.evaluate_detailed(figure4_query())
    assert result.count == 2
    assert result.chordification.is_trivial


def test_edge_burnback_requires_chords():
    store = figure4_graph()
    with pytest.raises(QueryError):
        WireframeEngine(store, edge_burnback=True, use_chords=False)


def test_unknown_embedding_planner_rejected():
    with pytest.raises(TypeError):
        WireframeEngine(figure1_graph(), embedding_planner="dp")


def test_count_only_mode():
    store = figure1_graph()
    engine = WireframeEngine(store)
    result = engine.evaluate_detailed(figure1_query(), materialize=False)
    assert result.rows is None
    assert result.count == 12


def test_engine_result_interface():
    store = figure1_graph()
    result = WireframeEngine(store).evaluate(figure1_query())
    assert result.engine == "WF"
    assert result.count == 12
    assert result.stats["ag_size"] == 8
    assert result.stats["edge_walks"] > 0
    assert tuple(sorted(result.stats["ag_plan"])) == (0, 1, 2)


def test_empty_query_result():
    store = figure1_graph()
    q = parse_sparql("select * where { ?a A ?b . ?b A ?c }")
    result = WireframeEngine(store).evaluate_detailed(q)
    assert result.count == 0
    assert result.rows == []
    assert result.ag_size == 0


def test_unsatisfiable_label():
    store = figure1_graph()
    q = parse_sparql("select * where { ?a zzz ?b }")
    assert WireframeEngine(store).evaluate(q).count == 0


def test_disconnected_query_rejected():
    store = figure1_graph()
    q = ConjunctiveQuery([("?a", "A", "?b"), ("?c", "B", "?d")])
    with pytest.raises(QueryError):
        WireframeEngine(store).evaluate(q)


def test_trace_passthrough():
    store = figure1_graph()
    trace = GenerationTrace()
    WireframeEngine(store).evaluate_detailed(figure1_query(), trace=trace)
    assert trace.of_kind("extend")


def test_timeout_propagates():
    import time

    store = figure1_graph()
    engine = WireframeEngine(store)
    deadline = Deadline(0.001, stride=1)
    time.sleep(0.01)
    with pytest.raises(EvaluationTimeout):
        engine.evaluate(figure1_query(), deadline=deadline)


def test_projection_distinct_through_engine():
    store = figure1_graph()
    q = parse_sparql(
        "select distinct ?x where { ?w :A ?x . ?x :B ?y . ?y :C ?z }"
    )
    result = WireframeEngine(store).evaluate(q)
    assert result.count == 1
    assert result.rows == [(store.dictionary.lookup("5"),)]


def test_total_seconds_property():
    store = figure1_graph()
    result = WireframeEngine(store).evaluate_detailed(figure1_query())
    assert result.total_seconds == pytest.approx(
        result.phase1_seconds + result.phase2_seconds
    )


def test_an_evaluation_leaves_nothing_to_the_cyclic_collector():
    """Plans, answer graphs and results die by reference count: with
    the collector off, an acyclic and a cyclic paper query, and an
    evaluation past its deadline, leave no unreachable object behind,
    on Wireframe and on the four baselines (the benchmark harness
    promotes around every one of them, see :mod:`repro.core.gc_pause`),
    and the answer graph goes with its last reference."""
    import gc
    import weakref

    from repro.baselines import (
        ColumnarEngine,
        HashJoinEngine,
        IndexNestedLoopEngine,
        NavigationalEngine,
    )
    from repro.datasets.paper_queries import paper_queries
    from repro.datasets.yago_like import generate_yago_like

    store = generate_yago_like(scale=0.2, seed=0)
    engines = [
        WireframeEngine(store),
        HashJoinEngine(store),
        IndexNestedLoopEngine(store),
        ColumnarEngine(store),
        NavigationalEngine(store),
    ]
    queries = {q.name: q for q in paper_queries()}
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for engine in engines:
            for name in ("CQ_S#1", "CQ_D#1"):
                assert engine.evaluate(queries[name]).count > 0
                assert gc.collect() == 0, (engine.name, name)
            with pytest.raises(EvaluationTimeout):
                engine.evaluate(queries["CQ_S#1"],
                                deadline=Deadline(1e-9, stride=1))
            assert gc.collect() == 0, (engine.name, "expired deadline")
        engine = engines[0]
        for name in ("CQ_S#1", "CQ_D#1"):
            detail = engine.evaluate_detailed(queries[name])
            answer_graph = weakref.ref(detail.answer_graph)
            del detail
            assert answer_graph() is None, name
            assert gc.collect() == 0, name
    finally:
        if was_enabled:
            gc.enable()


def test_a_service_evaluation_leaves_nothing_to_the_cyclic_collector():
    """The same through ``QueryService.evaluate``: its worker thread,
    plan and result caches, and an evaluation past its deadline."""
    import gc

    from repro.datasets.paper_queries import paper_queries
    from repro.datasets.yago_like import generate_yago_like
    from repro.service import QueryService

    store = generate_yago_like(scale=0.2, seed=0)
    queries = {q.name: q for q in paper_queries()}
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with QueryService(store) as service:
            for name in ("CQ_S#1", "CQ_D#1", "CQ_S#1"):
                assert service.evaluate(queries[name]).count > 0
                assert gc.collect() == 0, name
            with pytest.raises(EvaluationTimeout):
                service.evaluate(queries["CQ_S#2"],
                                 deadline=Deadline(1e-9, stride=1))
            assert gc.collect() == 0, "expired deadline"
        assert gc.collect() == 0, "close"
    finally:
        if was_enabled:
            gc.enable()
