"""The cyclic collector is paused for each evaluation and always put back.

``WireframeEngine.evaluate`` turns the collector off for the whole
evaluation and on again after the answer graph is freed. The pause is
safe because the answer graph is acyclic and dies by reference count
(``test_an_evaluation_leaves_nothing_to_the_cyclic_collector``); what
these tests pin is that ``gc.isenabled()`` always ends as it began, on
every way out of an evaluation and across threads, and that overlapping
evaluations never keep the collector off for good.

The owner of a pause that hands back at least a young threshold of
rows promotes what is young to the oldest generation: no young
collection walks those rows. The promotion tests pin when it happens
and when it must not.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref
from contextlib import contextmanager

import pytest

from repro.baselines import HashJoinEngine
from repro.bench.harness import BenchmarkProtocol, run_query
from repro.core.engine import WireframeEngine
from repro.core.gc_pause import collector_paused
from repro.datasets.motifs import figure1_graph, figure1_query
from repro.datasets.paper_queries import paper_queries
from repro.datasets.yago_like import generate_yago_like
from repro.errors import EvaluationTimeout, QueryError
from repro.obs.gc_metrics import promotions
from repro.query.model import ConjunctiveQuery
from repro.query.parser import parse_sparql
from repro.service import QueryService
from repro.utils.deadline import Deadline


@pytest.fixture(autouse=True)
def collector_on():
    """Each test starts with the collector on, and a failing one cannot
    leave it off for the rest of the session."""
    assert gc.isenabled()
    yield
    gc.enable()


def watched(engine: WireframeEngine) -> list[bool]:
    """``gc.isenabled()`` as each of ``engine``'s evaluations saw it."""
    seen: list[bool] = []
    evaluate_detailed = engine.evaluate_detailed

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return evaluate_detailed(*args, **kwargs)

    engine.evaluate_detailed = recording
    return seen


def test_paused_during_the_evaluation_and_resumed_after():
    engine = WireframeEngine(figure1_graph())
    seen = watched(engine)
    assert engine.evaluate(figure1_query()).count > 0
    assert seen == [False]
    assert gc.isenabled()


def test_nested_evaluations():
    engine = WireframeEngine(figure1_graph())
    seen = watched(engine)
    with collector_paused():
        engine.evaluate(figure1_query())
        assert not gc.isenabled()  # the inner pause did not own it
        with collector_paused():
            engine.evaluate(figure1_query(), limit=1)
        assert not gc.isenabled()
    assert seen == [False, False]
    assert gc.isenabled()


def test_evaluation_timeout():
    engine = WireframeEngine(figure1_graph())
    expired = Deadline(1e-9, stride=1)
    with pytest.raises(EvaluationTimeout):
        engine.evaluate(figure1_query(), deadline=expired)
    assert gc.isenabled()


def test_engine_error():
    engine = WireframeEngine(figure1_graph())
    disconnected = ConjunctiveQuery([("?a", "A", "?b"), ("?c", "B", "?d")])
    with pytest.raises(QueryError):
        engine.evaluate(disconnected)
    assert gc.isenabled()


def test_limit_head():
    engine = WireframeEngine(figure1_graph())
    seen = watched(engine)
    result = engine.evaluate(figure1_query(), limit=1)
    assert len(result.rows) == 1 and result.count > 1
    assert seen == [False]
    assert gc.isenabled()


def test_empty_answer_graph():
    engine = WireframeEngine(figure1_graph())
    seen = watched(engine)
    result = engine.evaluate(parse_sparql("select * where { ?a A ?b . ?b A ?c }"))
    assert result.count == 0 and result.rows == []
    assert seen == [False]
    assert gc.isenabled()


def test_a_caller_who_disabled_the_collector_keeps_it_off():
    engine = WireframeEngine(figure1_graph())
    gc.disable()
    engine.evaluate(figure1_query())
    with pytest.raises(QueryError):
        engine.evaluate(ConjunctiveQuery([("?a", "A", "?b"), ("?c", "B", "?d")]))
    assert not gc.isenabled()


def test_the_owner_resumes_the_collector_while_another_thread_evaluates():
    """A starts with the collector on and owns the pause; B starts while
    it is off. When A finishes the collector is back on, though B is
    still inside its evaluation, and B's end leaves it on."""
    engine = WireframeEngine(figure1_graph())
    evaluate_detailed = engine.evaluate_detailed
    entered = {name: threading.Event() for name in "AB"}
    release = {name: threading.Event() for name in "AB"}

    def gated(*args, **kwargs):
        name = threading.current_thread().name
        entered[name].set()
        assert release[name].wait(10)
        return evaluate_detailed(*args, **kwargs)

    engine.evaluate_detailed = gated
    errors = []

    def run():
        try:
            engine.evaluate(figure1_query())
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    threads = {name: threading.Thread(target=run, name=name) for name in "AB"}
    try:
        threads["A"].start()
        assert entered["A"].wait(10)
        assert not gc.isenabled()
        threads["B"].start()
        assert entered["B"].wait(10)
        release["A"].set()
        threads["A"].join(10)
        assert gc.isenabled()  # B is still evaluating
        assert threads["B"].is_alive()
    finally:
        release["A"].set()
        release["B"].set()
        for thread in threads.values():
            thread.join(10)
    assert not errors
    assert gc.isenabled()


def test_many_threads_leave_the_collector_on():
    """Eight threads evaluating at once, switching as often as the
    interpreter allows: every answer is right and the collector ends on."""
    engine = WireframeEngine(figure1_graph())
    expected = engine.evaluate(figure1_query()).count
    counts: list[int] = []

    def run():
        for _ in range(40):
            counts.append(engine.evaluate(figure1_query()).count)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert counts == [expected] * 320
    assert gc.isenabled()


def test_overlapping_service_misses_do_not_starve_the_collector(mini_yago):
    """Four workers evaluating misses back to back keep the pause in
    use almost all the time; young-generation collections still run."""
    queries = [
        parse_sparql(f"select ?a, ?m where {{ ?a actedIn ?m . ?a {p} ?c }}")
        for p in ("wasBornIn", "livesIn", "hasWonPrize", "isCitizenOf")
    ]
    with QueryService(mini_yago, max_workers=4, result_cache_size=0,
                      coalesce=False) as service:
        seen: list[int] = []
        evaluate_detailed = service.engine.evaluate_detailed

        def counting(*args, **kwargs):
            seen.append(gc.get_stats()[0]["collections"])
            return evaluate_detailed(*args, **kwargs)

        service.engine.evaluate_detailed = counting
        before = gc.get_stats()[0]["collections"]
        service.evaluate_many(queries * 16)
    assert len(seen) == 64
    assert max(seen) > min(seen)
    assert gc.get_stats()[0]["collections"] > before
    assert gc.isenabled()


# ----------------------------------------------------------------------
# Promotion of the rows handed back
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def snowflake():
    """A scale-0.2 store and CQ_S#2 on it, whose 6,493 rows are many
    times the young threshold."""
    store = generate_yago_like(scale=0.2, seed=0)
    query = next(q for q in paper_queries() if q.name == "CQ_S#2")
    return WireframeEngine(store), query


@contextmanager
def collections_started():
    """The generation of each collection that starts in the block."""
    started: list[int] = []

    def hook(phase: str, info: dict) -> None:
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        yield started
    finally:
        gc.callbacks.remove(hook)


def in_oldest_generation(obj) -> bool:
    return any(young is obj for young in gc.get_objects(generation=2))


def test_a_large_evaluations_rows_skip_the_young_collection(snowflake):
    engine, query = snowflake
    assert gc.get_threshold()[0] > 0
    before = promotions()
    with collections_started() as started:
        result = engine.evaluate(query)
        assert len(result.rows) >= gc.get_threshold()[0]
        assert gc.get_count()[0] < gc.get_threshold()[0]
        assert in_oldest_generation(result.rows)
        del result
    assert started == []
    assert promotions() == before + 1
    assert gc.isenabled()


def test_a_small_evaluation_promotes_nothing():
    engine = WireframeEngine(figure1_graph())
    before = promotions()
    result = engine.evaluate(figure1_query())
    assert 0 < len(result.rows) < gc.get_threshold()[0]
    assert not in_oldest_generation(result.rows)
    assert promotions() == before


@pytest.mark.parametrize("baseline", [False, True])
def test_the_harness_promotes_each_run_once(snowflake, baseline):
    """``run_query`` owns the pause for every engine, so a baseline's
    rows are promoted too, and Wireframe's own inner pause is not an
    owner: each run is promoted once, not twice."""
    engine, query = snowflake
    if baseline:
        engine = HashJoinEngine(engine.store)
    before = promotions()
    timing = run_query(engine, query, BenchmarkProtocol(runs=2, discard=0))
    assert timing.count == 6493
    assert promotions() == before + 2


def test_a_callers_freeze_is_never_thawed(snowflake):
    engine, query = snowflake
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        before = promotions()
        result = engine.evaluate(query)
        assert len(result.rows) >= gc.get_threshold()[0]
        assert gc.get_freeze_count() == frozen
        assert promotions() == before
    finally:
        gc.unfreeze()


def test_a_zero_threshold_promotes_nothing(snowflake):
    engine, query = snowflake
    thresholds = gc.get_threshold()
    gc.set_threshold(0)
    try:
        before = promotions()
        result = engine.evaluate(query)
        assert len(result.rows) > 0
        assert promotions() == before
    finally:
        gc.set_threshold(*thresholds)


def test_a_nested_pause_never_promotes(snowflake):
    engine, query = snowflake
    before = promotions()
    with collector_paused():
        result = engine.evaluate(query)
        assert promotions() == before
        assert not gc.isenabled()
    # The outer owner handed back nothing.
    assert len(result.rows) >= gc.get_threshold()[0]
    assert promotions() == before
    assert gc.isenabled()


def test_a_caller_who_disabled_the_collector_is_never_promoted(snowflake):
    engine, query = snowflake
    before = promotions()
    gc.disable()
    result = engine.evaluate(query)
    assert not gc.isenabled()
    gc.enable()
    assert len(result.rows) >= gc.get_threshold()[0]
    assert promotions() == before


def test_a_cycle_made_before_a_promotion_is_still_reclaimed(snowflake):
    """Promotion defers a young cycle to the next full collection; it
    does not lose it."""
    engine, query = snowflake

    class Node:
        pass

    reclaimed: list[bool] = []
    node = Node()
    node.self = node
    weakref.finalize(node, reclaimed.append, True)
    del node
    before = promotions()
    result = engine.evaluate(query)
    assert promotions() == before + 1
    del result
    gc.collect()
    assert reclaimed == [True]
