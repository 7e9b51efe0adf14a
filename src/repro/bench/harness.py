"""Timing harness implementing the paper's measurement protocol.

"We repeat execution of each query five times, taking the average of
the last four runs (i.e., warm cache), as reported in Table 1. The
execution time is the time spent to retrieve all the result tuples for
a query." (§5; queries are terminated after the timeout and shown as
``*``.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.gc_pause import collector_paused
from repro.engine_api import Engine
from repro.errors import EvaluationTimeout
from repro.query.model import ConjunctiveQuery
from repro.utils.deadline import Deadline


@dataclass(frozen=True)
class BenchmarkProtocol:
    """How to time one (engine, query) pair.

    The paper's protocol is ``BenchmarkProtocol(runs=5, discard=1,
    timeout=300.0)``; the defaults here are scaled to the in-repo
    dataset sizes. ``materialize`` keeps the paper's semantics: the
    measured time includes retrieving every result tuple.
    """

    runs: int = 3
    discard: int = 1
    timeout: float = 60.0
    materialize: bool = True

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not (0 <= self.discard < self.runs):
            raise ValueError("discard must leave at least one measured run")


@dataclass
class QueryTiming:
    """Timing outcome for one (engine, query) pair.

    ``seconds`` is ``None`` when the engine timed out (the paper's
    ``*``). ``count`` is the result cardinality of the last completed
    run.
    """

    engine: str
    query: str
    seconds: float | None
    count: int | None
    run_seconds: list[float] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def timed_out(self) -> bool:
        return self.seconds is None


def run_query(
    engine: Engine,
    query: ConjunctiveQuery,
    protocol: BenchmarkProtocol | None = None,
) -> QueryTiming:
    """Time ``engine`` on ``query`` under ``protocol``.

    A timeout on *any* run marks the pair as timed out — matching the
    paper, where a starred query never produced a measurement. Every
    engine runs with the cyclic collector paused, and its rows
    promoted past the young generation, as Wireframe's own
    ``evaluate`` does, so the comparison stays like-for-like.
    """
    if protocol is None:
        protocol = BenchmarkProtocol()
    label = query.name or "?"
    run_seconds: list[float] = []
    count: int | None = None
    stats: dict = {}
    for _ in range(protocol.runs):
        deadline = Deadline(protocol.timeout)
        start = time.perf_counter()
        try:
            with collector_paused() as pause:
                result = engine.evaluate(
                    query, deadline=deadline, materialize=protocol.materialize
                )
                pause.hand_back(len(result.rows or ()))
        except EvaluationTimeout:
            return QueryTiming(
                engine=engine.name,
                query=label,
                seconds=None,
                count=None,
                run_seconds=run_seconds,
            )
        run_seconds.append(time.perf_counter() - start)
        count = result.count
        stats = result.stats
    measured = run_seconds[protocol.discard :]
    return QueryTiming(
        engine=engine.name,
        query=label,
        seconds=sum(measured) / len(measured),
        count=count,
        run_seconds=run_seconds,
        stats=stats,
    )


def run_suite(
    engines: list[Engine],
    queries: list[ConjunctiveQuery],
    protocol: BenchmarkProtocol | None = None,
) -> dict[tuple[str, str], QueryTiming]:
    """Run every engine on every query; keyed by (engine, query name)."""
    results: dict[tuple[str, str], QueryTiming] = {}
    for query in queries:
        for engine in engines:
            timing = run_query(engine, query, protocol)
            results[(timing.engine, timing.query)] = timing
    return results
