"""Shared machinery for the baseline engines.

All baselines bind queries the same way, order edges with the same
catalog-backed greedy heuristic (each real system has its own
cost-based optimizer; what the paper's comparison isolates is the
*execution model*, so the stand-ins share one competent ordering), and
finalize rows identically (projection + DISTINCT).
"""

from __future__ import annotations

import abc

from repro.engine_api import Engine, EngineResult, resolve_catalog
from repro.graph.store import TripleStore
from repro.planner.edgifier import greedy_plan
from repro.query.algebra import BoundQuery, bind_query
from repro.query.model import ConjunctiveQuery
from repro.stats.catalog import Catalog
from repro.stats.estimator import CardinalityEstimator
from repro.utils.deadline import Deadline


class BaselineEngine(Engine):
    """Common skeleton: bind, order, execute, finalize."""

    def __init__(self, store: TripleStore, catalog: Catalog | None = None):
        self.store = store
        self.catalog = resolve_catalog(store, catalog)
        self.estimator = CardinalityEstimator(self.catalog)

    # ------------------------------------------------------------------

    def join_order(self, bound: BoundQuery) -> list[int]:
        """Greedy connected order minimizing estimated extension cost."""
        return list(greedy_plan(self.estimator.compile(bound.edges)).order)

    # ------------------------------------------------------------------

    def evaluate(
        self,
        query: ConjunctiveQuery,
        deadline: Deadline | None = None,
        materialize: bool = True,
    ) -> EngineResult:
        query.validate()
        if deadline is None:
            deadline = Deadline.unlimited()
        bound = bind_query(query, self.store)
        if not bound.satisfiable:
            return EngineResult(engine=self.name, count=0, rows=[] if materialize else None)
        rows, count, stats = self._execute(bound, deadline, materialize)
        stats.setdefault("backend", self.store.backend_name)
        return EngineResult(engine=self.name, count=count, rows=rows, stats=stats)

    @abc.abstractmethod
    def _execute(
        self, bound: BoundQuery, deadline: Deadline, materialize: bool
    ) -> tuple[list[tuple] | None, int, dict]:
        """Produce (projected rows | None, count, engine stats)."""

    # ------------------------------------------------------------------

    @staticmethod
    def finalize(
        bound: BoundQuery,
        full_rows: list[tuple],
        materialize: bool,
    ) -> tuple[list[tuple] | None, int]:
        """Apply projection and DISTINCT to full embeddings."""
        projection = bound.projection
        full = projection == tuple(range(bound.num_vars))
        if full:
            rows = full_rows
        else:
            rows = [tuple(r[i] for i in projection) for r in full_rows]
            if bound.distinct:
                seen: set[tuple] = set()
                deduped = []
                for row in rows:
                    if row not in seen:
                        seen.add(row)
                        deduped.append(row)
                rows = deduped
        count = len(rows)
        return (rows if materialize else None), count
