"""``NJ`` — the Neo4J stand-in: navigational backtracking matching.

A property-graph engine evaluates a pattern by anchoring on one edge
and expanding neighbor-by-neighbor, producing one embedding at a time
(depth-first, constant memory beyond the current path). No
intermediate relations are materialized, but every embedding is
*enumerated from the data graph*, so redundant sub-path work repeats
across the many-many fan — standard evaluation in its streaming form.

The expansion order uses only per-label edge counts (graph engines
know label cardinalities but not our 2-gram catalog), anchoring on the
rarest label and always expanding through already-bound variables.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.baselines.base import BaselineEngine
from repro.errors import PlanError
from repro.query.algebra import BoundQuery
from repro.utils.deadline import Deadline


class NavigationalEngine(BaselineEngine):
    """One-embedding-at-a-time DFS over the store's adjacency."""

    name = "NJ"

    def join_order(self, bound: BoundQuery) -> list[int]:
        """Rarest-label-first connected order (no 2-gram statistics)."""
        store = self.store
        n = len(bound.edges)
        remaining = set(range(n))

        def label_count(eid: int) -> int:
            p = bound.edges[eid].p
            return store.count(p) if p is not None else 0

        order: list[int] = []
        bound_tokens: set = set()
        while remaining:
            candidates = [
                eid
                for eid in remaining
                if not order or (bound.edges[eid].term_tokens() & bound_tokens)
            ]
            if not candidates:
                raise PlanError("query graph is disconnected")
            chosen = min(candidates, key=label_count)
            order.append(chosen)
            bound_tokens |= bound.edges[chosen].term_tokens()
            remaining.discard(chosen)
        return order

    def _execute(
        self, bound: BoundQuery, deadline: Deadline, materialize: bool
    ) -> tuple[list[tuple] | None, int, dict]:
        order = self.join_order(bound)
        steps = self._compile(bound, order)
        assignment: list[int] = [-1] * bound.num_vars

        projection = bound.projection
        full = projection == tuple(range(bound.num_vars))
        dedupe = bound.distinct and not full

        rows: list[tuple] = []
        seen: set[tuple] = set()
        count = 0
        expansions = 0

        last = len(steps) - 1
        iters: list[Iterator[None] | None] = [None] * len(steps)
        iters[0] = steps[0](assignment)
        depth = 0
        check = deadline.check
        while depth >= 0:
            it = iters[depth]
            assert it is not None
            advanced = False
            for _ in it:
                advanced = True
                break
            if not advanced:
                depth -= 1
                continue
            check()
            expansions += 1
            if depth == last:
                row = (
                    tuple(assignment)
                    if full
                    else tuple(assignment[i] for i in projection)
                )
                if dedupe:
                    if row in seen:
                        continue
                    seen.add(row)
                count += 1
                if materialize:
                    rows.append(row)
            else:
                depth += 1
                iters[depth] = steps[depth](assignment)

        return (rows if materialize else None), count, {
            "expansions": expansions,
            "order": tuple(order),
        }

    # ------------------------------------------------------------------

    def _compile(
        self, bound: BoundQuery, order: list[int]
    ) -> list[Callable[[list[int]], Iterator[None]]]:
        """Per-step expansion closures over the store's live indexes."""
        store = self.store
        steps: list[Callable[[list[int]], Iterator[None]]] = []
        assigned: set[int] = set()
        for eid in order:
            edge = bound.edges[eid]
            p = edge.p
            assert p is not None
            fwd = store.adjacency(p)
            bwd = store.reverse_adjacency(p)
            s_var, o_var, s_const, o_const = (
                edge.s_var,
                edge.o_var,
                edge.s_const,
                edge.o_const,
            )
            if s_var is not None and s_var == o_var:
                if s_var in assigned:
                    steps.append(_check_self(fwd, s_var))
                else:
                    steps.append(_scan_self(fwd, s_var))
                    assigned.add(s_var)
                continue
            s_known = s_var is None or s_var in assigned
            o_known = o_var is None or o_var in assigned
            if s_known and o_known:
                steps.append(_check(fwd, s_var, s_const, o_var, o_const))
            elif s_known:
                steps.append(_expand_fwd(fwd, s_var, s_const, o_var))
                assigned.add(o_var)  # type: ignore[arg-type]
            elif o_known:
                steps.append(_expand_bwd(bwd, o_var, o_const, s_var))
                assigned.add(s_var)  # type: ignore[arg-type]
            else:
                steps.append(_scan(fwd, s_var, o_var))
                assigned.add(s_var)  # type: ignore[arg-type]
                assigned.add(o_var)  # type: ignore[arg-type]
        return steps


def _scan(fwd, s_var, o_var):
    def step(assignment):
        for s, objs in fwd.items():
            assignment[s_var] = s
            for o in objs:
                assignment[o_var] = o
                yield

    return step


def _scan_self(fwd, var):
    def step(assignment):
        for s, objs in fwd.items():
            if s in objs:
                assignment[var] = s
                yield

    return step


def _check_self(fwd, var):
    def step(assignment):
        node = assignment[var]
        objs = fwd.get(node)
        if objs is not None and node in objs:
            yield

    return step


def _expand_fwd(fwd, s_var, s_const, o_var):
    def step(assignment):
        s = assignment[s_var] if s_var is not None else s_const
        objs = fwd.get(s)
        if objs:
            for o in objs:
                assignment[o_var] = o
                yield

    return step


def _expand_bwd(bwd, o_var, o_const, s_var):
    def step(assignment):
        o = assignment[o_var] if o_var is not None else o_const
        subs = bwd.get(o)
        if subs:
            for s in subs:
                assignment[s_var] = s
                yield

    return step


def _check(fwd, s_var, s_const, o_var, o_const):
    def step(assignment):
        s = assignment[s_var] if s_var is not None else s_const
        o = assignment[o_var] if o_var is not None else o_const
        objs = fwd.get(s)
        if objs is not None and o in objs:
            yield

    return step
