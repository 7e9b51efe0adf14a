"""Oracle reference implementations.

These evaluate directly against the data graph with a straightforward
backtracking matcher. They exist to *define correctness*:

* :func:`enumerate_embeddings_bruteforce` — ground truth for every
  engine's result set in the cross-engine integration tests;
* :func:`ideal_answer_graph` — the iAG by definition ("the minimum
  subset of G that suffices to compute the embeddings"): the projection
  of the embedding set onto each query edge. Property tests compare
  Wireframe's generated AG against this;
* :func:`has_any_embedding` — early-exit satisfiability probe used by
  dataset sanity checks.

They are deliberately simple rather than fast; use
:class:`~repro.core.engine.WireframeEngine` or a baseline for real
workloads.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.graph.store import TripleStore
from repro.query.algebra import BoundQuery, bind_query
from repro.query.model import ConjunctiveQuery
from repro.utils.deadline import Deadline


def _default_order(bound: BoundQuery) -> list[int]:
    """A connected edge order, cheapest-count edge first."""
    store = bound.store
    n = len(bound.edges)
    remaining = set(range(n))

    def edge_cost(eid: int) -> int:
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
            candidates = list(remaining)  # disconnected query: cross product
        chosen = min(candidates, key=edge_cost)
        order.append(chosen)
        bound_tokens |= bound.edges[chosen].term_tokens()
        remaining.discard(chosen)
    return order


def _extensions(
    store: TripleStore,
    bound: BoundQuery,
    eid: int,
    assignment: dict[int, int],
) -> Iterator[dict[int, int] | None]:
    """Yield per-match variable updates ({} means pure filter match)."""
    edge = bound.edges[eid]
    if not edge.satisfiable:
        return
    p = edge.p
    assert p is not None
    s_val = (
        assignment.get(edge.s_var) if edge.s_var is not None else edge.s_const
    )
    o_val = (
        assignment.get(edge.o_var) if edge.o_var is not None else edge.o_const
    )
    if edge.s_var is not None and edge.s_var == edge.o_var:
        if s_val is not None:
            if s_val in store.successors(p, s_val):
                yield {}
        else:
            for s in store.subject_set(p):
                if s in store.successors(p, s):
                    yield {edge.s_var: s}
        return
    if s_val is not None and o_val is not None:
        if o_val in store.successors(p, s_val):
            yield {}
    elif s_val is not None:
        for o in store.successors(p, s_val):
            yield {edge.o_var: o}
    elif o_val is not None:
        for s in store.predecessors(p, o_val):
            yield {edge.s_var: s}
    else:
        for s, o in store.edges(p):
            update: dict[int, int] = {}
            if edge.s_var is not None:
                update[edge.s_var] = s
            if edge.o_var is not None:
                update[edge.o_var] = o
            yield update


def _search(
    store: TripleStore,
    bound: BoundQuery,
    order: Sequence[int],
    depth: int,
    assignment: dict[int, int],
    deadline: Deadline,
) -> Iterator[tuple[int, ...]]:
    if depth == len(order):
        yield tuple(assignment[v] for v in range(bound.num_vars))
        return
    eid = order[depth]
    for update in _extensions(store, bound, eid, assignment):
        deadline.check()
        assignment.update(update)
        yield from _search(store, bound, order, depth + 1, assignment, deadline)
        for var in update:
            del assignment[var]


def enumerate_embeddings_bruteforce(
    store: TripleStore,
    query: ConjunctiveQuery | BoundQuery,
    deadline: Deadline | None = None,
) -> list[tuple[int, ...]]:
    """Every full embedding (tuple over all variables), by backtracking."""
    bound = query if isinstance(query, BoundQuery) else bind_query(query, store)
    if deadline is None:
        deadline = Deadline.unlimited()
    order = _default_order(bound)
    return list(_search(store, bound, order, 0, {}, deadline))


def has_any_embedding(
    store: TripleStore,
    query: ConjunctiveQuery | BoundQuery,
    deadline: Deadline | None = None,
) -> bool:
    """Early-exit satisfiability test."""
    bound = query if isinstance(query, BoundQuery) else bind_query(query, store)
    if deadline is None:
        deadline = Deadline.unlimited()
    order = _default_order(bound)
    for _ in _search(store, bound, order, 0, {}, deadline):
        return True
    return False


def ideal_answer_graph(
    store: TripleStore,
    query: ConjunctiveQuery | BoundQuery,
    deadline: Deadline | None = None,
) -> dict[int, set[tuple[int, int]]]:
    """The iAG by definition: per-edge projections of the embeddings.

    Returns ``{edge index: {(subject node, object node), ...}}``. An
    edge's projected pair uses the embedding's values for its variable
    endpoints and the constant for ground endpoints.
    """
    bound = query if isinstance(query, BoundQuery) else bind_query(query, store)
    projected: dict[int, set[tuple[int, int]]] = {
        eid: set() for eid in range(len(bound.edges))
    }
    for emb in enumerate_embeddings_bruteforce(store, bound, deadline):
        for eid, edge in enumerate(bound.edges):
            s = emb[edge.s_var] if edge.s_var is not None else edge.s_const
            o = emb[edge.o_var] if edge.o_var is not None else edge.o_const
            assert s is not None and o is not None
            projected[eid].add((s, o))
    return projected
