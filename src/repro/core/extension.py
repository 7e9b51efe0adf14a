"""The edge-extension step of answer-graph generation.

"For each query edge of the plan, in turn, our answer graph (AG) is
populated with the matching labeled edges from G that meet the join
constraints with the current state of the AG." — §3

Each extension retrieves candidate data edges through the store's
predicate-first indexes, restricted to the current AG node sets of any
already-constrained endpoint. The number of data edges *retrieved*
(before any far-endpoint filtering) is the step's **edge-walk** count —
the unit the cost model estimates.

Since the set-at-a-time rewrite the work is done by
:func:`repro.core.kernels.bulk_extend`, which matches whole candidate
sets against the store's live indexes with C-level set algebra and
polls the deadline once per candidate node instead of once per pair.
Walk counts are computed from index sizes and are bit-identical to the
retained tuple-at-a-time reference
(:func:`repro.core.reference.extend_edge_reference`).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.answer_graph import AnswerGraph
from repro.core.kernels import BulkExtension, bulk_extend
from repro.graph.store import TripleStore
from repro.query.algebra import BoundEdge
from repro.utils.deadline import Deadline


class ExtensionResult(NamedTuple):
    """Outcome of one tuple-at-a-time edge-extension step
    (:func:`repro.core.reference.extend_edge_reference`)."""

    pairs: set[tuple[int, int]]
    edge_walks: int


def extend_edge_bulk(
    ag: AnswerGraph,
    store: TripleStore,
    edge: BoundEdge,
    deadline: Deadline,
) -> BulkExtension:
    """Matching data edges for ``edge``, as grouped adjacency in the
    direction they were walked.

    Does not mutate ``ag``; the generation driver hands the result
    straight to
    :meth:`~repro.core.answer_graph.AnswerGraph.register_relation`
    (no intermediate pair set) and runs burnback. An unsatisfiable edge
    (unknown predicate or constant) yields no pairs.
    """
    if not edge.satisfiable:
        return BulkExtension({}, None, 0)
    p = edge.p
    assert p is not None
    s_candidates = _endpoint_candidates(ag, edge.s_var, edge.s_const)
    o_candidates = _endpoint_candidates(ag, edge.o_var, edge.o_const)
    self_join = edge.s_var is not None and edge.s_var == edge.o_var
    return bulk_extend(store, p, s_candidates, o_candidates, self_join, deadline)


def _endpoint_candidates(
    ag: AnswerGraph, var: int | None, const: int | None
) -> set[int] | None:
    """The node set constraining this endpoint, or ``None`` if free."""
    if const is not None:
        return {const}
    if var is not None:
        return ag.node_sets.get(var)
    return None
