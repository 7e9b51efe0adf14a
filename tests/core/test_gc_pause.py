"""The cyclic collector is paused for each evaluation and always put back.

``WireframeEngine.evaluate`` turns the collector off for the whole
evaluation and on again after the answer graph is freed. The pause is
safe because the answer graph is acyclic and dies by reference count
(``test_an_evaluation_leaves_nothing_to_the_cyclic_collector``); what
these tests pin is that ``gc.isenabled()`` always ends as it began, on
every way out of an evaluation and across threads, and that overlapping
evaluations never keep the collector off for good.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from repro.core.engine import WireframeEngine
from repro.core.gc_pause import collector_paused
from repro.datasets.motifs import figure1_graph, figure1_query
from repro.errors import EvaluationTimeout, QueryError
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
