"""The Wireframe engine: two-phase, cost-based CQ evaluation.

Wires together the whole pipeline of the paper's Fig. 3:

1. **Plan** — the Edgifier picks the left-deep edge order from catalog
   statistics; for cyclic queries the Triangulator chordifies the
   cycles.
2. **Answer-graph generation** — interleaved edge extension and node
   burnback (plus chord materialization and, optionally, edge
   burnback). Chords stay in the AG through step 4, which joins
   through them, and are dropped after it.
3. **Embedding plan** — the greedy join order (the prototype's, §5)
   from the *actual* AG statistics. It fixes the order of the skeleton
   variables and nothing else; every connected order gives the same
   rows.
4. **Defactorization** — embeddings are joined (or only counted) from
   the AG along that order. A cyclic query's row order is unspecified.

The engine implements the common :class:`~repro.engine_api.Engine`
interface so the benchmark harness can race it against the baseline
stand-ins, and additionally exposes :meth:`evaluate_detailed` returning
the full :class:`WireframeResult` (plans, AG, phase timings, walks).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.answer_graph import AnswerGraph
from repro.core.defactorize import (
    count_embeddings,
    first_embeddings,
    materialize_embeddings,
    plan_free_order,
)
from repro.core.gc_pause import collector_paused
from repro.core.generation import (
    GenerationStats,
    GenerationTrace,
    generate_answer_graph,
)
from repro.core.triangles import drop_chords
from repro.engine_api import Engine, EngineResult, resolve_catalog
from repro.errors import QueryError
from repro.obs.trace import current_trace
from repro.graph.store import TripleStore
from repro.planner.edgifier import Edgifier
from repro.planner.embedding_planner import greedy_embedding_plan
from repro.planner.plan import AGPlan, Chordification, EmbeddingPlan
from repro.planner.triangulator import Triangulator
from repro.query.algebra import BoundQuery, bind_query
from repro.query.model import ConjunctiveQuery
from repro.query.shapes import is_acyclic
from repro.stats.catalog import Catalog
from repro.stats.estimator import CardinalityEstimator
from repro.utils.deadline import Deadline


@dataclass
class WireframeResult:
    """Everything one Wireframe evaluation produced."""

    rows: list[tuple] | None  # the first ``limit`` rows, when one was given
    count: int
    ag_size: int  # |AG| over real edges after phase 1 (Table 1's column)
    answer_graph: AnswerGraph
    ag_plan: AGPlan
    chordification: Chordification
    embedding_plan: EmbeddingPlan
    generation_stats: GenerationStats
    phase1_seconds: float
    phase2_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.phase1_seconds + self.phase2_seconds


class WireframeEngine(Engine):
    """Answer-graph evaluation of conjunctive queries over one store.

    Parameters
    ----------
    store:
        The (ideally frozen) data graph.
    catalog:
        Offline statistics; computed from the store when omitted.
    edge_burnback:
        Enable triangle-consistency edge burnback for cyclic queries.
        Off by default, matching the paper's experimental setup ("our
        evaluation over cyclic CQs is without edge burnback", §4).
    use_chords:
        Materialize Triangulator chords for cyclic queries (keeps node
        sets minimal, §4.I). Required for edge burnback.
    lookahead:
        Phase 1 lets an extension that binds a new variable keep only
        the nodes the query's other edges on that variable can match in
        the store (``generate_answer_graph(..., lookahead=)``). On by
        default: same answer graph and rows for fewer edge walks.
        ``False`` is the paper's phase 1, the setting its Fig. 2 trace
        and Table 1 walk counts are reproduced in.
    """

    name = "WF"

    def __init__(
        self,
        store: TripleStore,
        catalog: Catalog | None = None,
        edge_burnback: bool = False,
        use_chords: bool = True,
        lookahead: bool = True,
    ):
        if edge_burnback and not use_chords:
            raise QueryError("edge burnback requires chord materialization")
        self.store = store
        self.catalog = resolve_catalog(store, catalog)
        self.estimator = CardinalityEstimator(self.catalog)
        self.edgifier = Edgifier(self.estimator)
        self.triangulator = Triangulator(self.estimator)
        self.edge_burnback = edge_burnback
        self.use_chords = use_chords
        self.lookahead = lookahead

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan(
        self,
        query: ConjunctiveQuery,
        cached_plan: tuple[AGPlan, Chordification] | None = None,
    ) -> tuple[BoundQuery, AGPlan, Chordification]:
        """Bind and plan ``query`` without evaluating it.

        ``cached_plan`` short-circuits the Edgifier/Triangulator with a
        previously computed ``(AGPlan, Chordification)`` pair. The caller
        (the service's plan cache) is responsible for only reusing plans
        across *alpha-equivalent* queries — edge indexes and chord
        structure are positional, so they carry over exactly for queries
        that differ only in variable names. A plan holds no data, so it
        stays valid when the store changes; one made from older
        statistics can only be a slower order, never a wrong one.
        """
        query.validate()
        bound = bind_query(query, self.store)
        if cached_plan is not None:
            return bound, cached_plan[0], cached_plan[1]
        ag_plan = self.edgifier.plan(bound)
        if self.use_chords and not is_acyclic(query):
            chordification = self.triangulator.plan(bound)
        else:
            chordification = Chordification((), (), (), 0.0)
        return bound, ag_plan, chordification

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate_detailed(
        self,
        query: ConjunctiveQuery,
        deadline: Deadline | None = None,
        materialize: bool = True,
        trace: GenerationTrace | None = None,
        prepared: tuple[BoundQuery, AGPlan, Chordification] | None = None,
        limit: int | None = None,
    ) -> WireframeResult:
        """Full two-phase evaluation with all artifacts exposed.

        ``prepared`` — the exact triple an earlier :meth:`plan` call
        returned for this query (where a cached plan is applied, if
        any) — skips binding and planning here. ``limit`` makes phase 2
        build only the first ``limit`` rows of a materialized result
        (the head of the unlimited ``rows``); ``count`` and everything
        else stay what they are without it.
        """
        if deadline is None:
            deadline = Deadline.unlimited()
        if prepared is None:
            prepared = self.plan(query)
        bound, ag_plan, chordification = prepared

        t0 = time.perf_counter()
        ag, gen_stats = generate_answer_graph(
            bound,
            ag_plan,
            chordification=chordification,
            deadline=deadline,
            edge_burnback_enabled=self.edge_burnback,
            keep_chords=True,
            trace=trace,
            lookahead=self.lookahead,
        )
        t1 = time.perf_counter()

        if ag.empty:
            embedding_plan = EmbeddingPlan(tuple(range(len(bound.edges))), 0.0)
            rows: list[tuple] | None = [] if materialize else None
            count = 0
        else:
            # The planner orders skeleton variables; with at most one,
            # or the two ends of a chord, there is nothing to order or
            # to gather statistics for.
            order = plan_free_order(ag)
            if order is not None:
                embedding_plan = EmbeddingPlan(order, 0.0)
            else:
                embedding_plan = greedy_embedding_plan(
                    bound, *ag.relation_statistics()
                )
            if materialize and limit is None:
                rows = materialize_embeddings(
                    ag, embedding_plan.order, deadline=deadline
                )
                count = len(rows)
            elif materialize:
                rows, count = first_embeddings(
                    ag, limit, embedding_plan.order, deadline=deadline
                )
            else:
                rows = None
                count = count_embeddings(ag, embedding_plan.order, deadline=deadline)
        drop_chords(ag, chordification)
        t2 = time.perf_counter()

        active = current_trace()
        if active is not None:
            # Reuse the phase timestamps already taken: generation is
            # phase 1, defactorization (embedding plan + join) phase 2.
            active.add_timed("generation", t0, t1)
            active.add_timed("defactorize", t1, t2)

        return WireframeResult(
            rows=rows,
            count=count,
            ag_size=ag.size,
            answer_graph=ag,
            ag_plan=ag_plan,
            chordification=chordification,
            embedding_plan=embedding_plan,
            generation_stats=gen_stats,
            phase1_seconds=t1 - t0,
            phase2_seconds=t2 - t1,
        )

    def evaluate(
        self,
        query: ConjunctiveQuery,
        deadline: Deadline | None = None,
        materialize: bool = True,
        *,
        prepared: tuple[BoundQuery, AGPlan, Chordification] | None = None,
        limit: int | None = None,
    ) -> EngineResult:
        """Uniform-interface evaluation (see :class:`Engine`).

        ``prepared`` and ``limit`` are :meth:`evaluate_detailed`'s. The
        cyclic collector is paused for the whole evaluation (see
        :mod:`repro.core.gc_pause`) and resumes only once the
        :class:`WireframeResult`, and with it the answer graph, has
        been freed by reference count. The returned rows are reported
        to the pause, which promotes them past the young generation
        when there are enough of them.
        """
        with collector_paused() as pause:
            # The WireframeResult is a temporary: it dies as soon as
            # engine_result returns, before the pause ends.
            result = self.engine_result(self.evaluate_detailed(
                query, deadline, materialize, prepared=prepared, limit=limit
            ))
            pause.hand_back(len(result.rows or ()))
            return result

    def engine_result(self, result: WireframeResult) -> EngineResult:
        """``result`` as the uniform :class:`EngineResult`, with the
        ``stats`` block every surface (library, service, wire) reports."""
        return EngineResult(
            engine=self.name,
            count=result.count,
            rows=result.rows,
            stats={
                "ag_size": result.ag_size,
                "edge_walks": result.generation_stats.edge_walks,
                "phase1_seconds": result.phase1_seconds,
                "phase2_seconds": result.phase2_seconds,
                "ag_plan": result.ag_plan.order,
                "embedding_plan": result.embedding_plan.order,
                "chords": len(result.chordification.chords),
                "spurious_pairs_removed": (
                    result.generation_stats.spurious_pairs_removed
                ),
                "backend": self.store.backend_name,
            },
        )
