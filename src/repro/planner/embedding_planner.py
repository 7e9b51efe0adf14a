"""The phase-2 planner: the join order for defactorization.

The paper's prototype "presently use[s] a greedy approach to generate a
tree plan based on the available statistics from the answer graph
phase" (§5), and that is the one planner here. The order decides one
thing: the sequence in which :mod:`repro.core.defactorize` enumerates
the *skeleton* variables (first appearance in the order). Hanging
leaves are emitted as independent pools whatever the order, and any
connected order yields the same rows. For an **acyclic** CQ over an
**ideal** AG no intermediate tuple is ever lost (§4.II), so the order is
immaterial; for cyclic CQs or a non-ideal AG a skeleton variable
enumerated early can produce partial assignments that a later
intersection discards; the greedy rule (smallest estimated
intermediate first) keeps those few.

Unlike phase 1, the statistics used are *exact*: the answer graph is
already materialized, so each query edge's relation size and per-side
distinct node counts are known. Joining tuples ``T`` (estimated size
``t``) with edge relation ``e`` through shared variable ``v`` is
estimated as ``t · |e| / distinct_e(v)`` — the average fan of ``e`` at
``v``; when both endpoints of ``e`` are already bound the result can
only shrink: ``t · min(1, |e| / (distinct_s · distinct_o))`` models the
closing-edge selectivity.

To avoid a circular dependency on :mod:`repro.core`, the planner takes
plain size dictionaries rather than an ``AnswerGraph``; the engine
extracts them via ``AnswerGraph.relation_statistics()``.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import PlanError
from repro.query.algebra import BoundQuery
from repro.planner.plan import EmbeddingPlan


def _edge_cost_step(
    bound: BoundQuery,
    eid: int,
    bound_vars: set[int],
    current: float,
    sizes: Mapping[int, int],
    node_counts: Mapping[tuple[int, str], int],
) -> float:
    """Estimated tuple count after joining edge ``eid``."""
    edge = bound.edges[eid]
    size = float(sizes.get(eid, 0))
    if size == 0.0:
        return 0.0
    s_bound = edge.s_var is not None and edge.s_var in bound_vars
    o_bound = edge.o_var is not None and edge.o_var in bound_vars
    ds = max(node_counts.get((eid, "s"), 1), 1)
    do = max(node_counts.get((eid, "o"), 1), 1)
    if s_bound and o_bound:
        return current * min(1.0, size / (ds * do))
    if s_bound:
        return current * (size / ds)
    if o_bound:
        return current * (size / do)
    # Disconnected step (only valid as the very first edge).
    return current * size


def greedy_embedding_plan(
    bound: BoundQuery,
    sizes: Mapping[int, int],
    node_counts: Mapping[tuple[int, str], int],
) -> EmbeddingPlan:
    """Greedy join order: smallest estimated intermediate at each step.

    This is the strategy the prototype ships (§5). Starts from the
    smallest AG edge relation and repeatedly appends the connected edge
    minimizing the estimated intermediate size.
    """
    n = len(bound.edges)
    if n == 0:
        raise PlanError("cannot plan embeddings for a query with no edges")
    remaining = set(range(n))
    start = min(remaining, key=lambda eid: sizes.get(eid, 0))
    order = [start]
    remaining.discard(start)
    bound_vars = set(bound.edges[start].var_set())
    bound_tokens = set(bound.edges[start].term_tokens())
    current = float(max(sizes.get(start, 0), 1))
    cost = current
    while remaining:
        candidates = [
            eid
            for eid in remaining
            if bound.edges[eid].term_tokens() & bound_tokens
        ]
        if not candidates:
            raise PlanError("query graph is disconnected; cannot plan embeddings")
        best_eid = min(
            candidates,
            key=lambda eid: _edge_cost_step(
                bound, eid, bound_vars, current, sizes, node_counts
            ),
        )
        current = max(
            _edge_cost_step(bound, best_eid, bound_vars, current, sizes, node_counts),
            0.0,
        )
        cost += current
        order.append(best_eid)
        bound_vars |= bound.edges[best_eid].var_set()
        bound_tokens |= bound.edges[best_eid].term_tokens()
        remaining.discard(best_eid)
    return EmbeddingPlan(order=tuple(order), estimated_cost=cost)

