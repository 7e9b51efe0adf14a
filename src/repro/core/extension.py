"""The edge-extension step of answer-graph generation.

"For each query edge of the plan, in turn, our answer graph (AG) is
populated with the matching labeled edges from G that meet the join
constraints with the current state of the AG." — §3

Each extension retrieves candidate data edges through the store's
predicate-first indexes, restricted to the current AG node sets of any
already-constrained endpoint. The number of data edges *retrieved* is
the step's **edge-walk** count — the unit the cost model estimates:

* a step that walks from a candidate set (one endpoint bound, or both:
  the smaller side) counts every edge of its candidates under the
  predicate, before any filtering of the far endpoint;
* a label scan (neither endpoint bound) counts the edges of the
  subjects it reads — all of the predicate's, unless look-ahead
  narrowed them first.

**Look-ahead.** An endpoint variable that has no node set yet is about
to get one from this step, and the query's *other* edges on that
variable — none extended so far, or the variable would be bound —
already say which nodes cannot survive: a node that is not a subject
(object) of such an edge's predicate anywhere in the store, or not a
neighbour of its constant, is the node burnback removes the moment
that edge is extended. :func:`lookahead_views` hands those sets to the
kernel as live store views and the step never keeps what it would burn:
Yannakakis' semi-join reduction applied one step early, from the
query's own remaining edges. What it changes in the count: a far
endpoint filtered by views costs the same walks (the edges were
retrieved), a scan narrows its subject keys by the views *before*
reading their edges and counts only those, and a step one of whose
views is empty retrieves nothing for zero walks. What it cannot change
is the answer graph: after node burnback that is the greatest
arc-consistent fixpoint, whenever a provably unmatched node is dropped.
``lookahead=False`` on the generation driver passes no views and is the
paper's phase 1, walk for walk.

Since the set-at-a-time rewrite the work is done by
:func:`repro.core.kernels.bulk_extend`, which matches whole candidate
sets against the store's live indexes with C-level set algebra and
polls the deadline once per candidate node instead of once per pair.
Walk counts are computed from index sizes and are bit-identical to the
retained tuple-at-a-time reference
(:func:`repro.core.reference.extend_edge_reference`), look-ahead on or
off.
"""

from __future__ import annotations

from typing import AbstractSet, NamedTuple

from repro.core.answer_graph import AnswerGraph
from repro.core.kernels import BulkExtension, Views, bulk_extend
from repro.graph.store import TripleStore
from repro.query.algebra import BoundEdge, BoundQuery
from repro.utils.deadline import Deadline


class ExtensionResult(NamedTuple):
    """Outcome of one tuple-at-a-time edge-extension step
    (:func:`repro.core.reference.extend_edge_reference`)."""

    pairs: set[tuple[int, int]]
    edge_walks: int


#: Look-ahead incidence of one bound query: variable -> the edges that
#: can vouch for a node bound to it, each with the side (``"s"``/``"o"``)
#: the variable sits on.
Incidence = dict[int, list[tuple[BoundEdge, str]]]

_NO_NODES: frozenset[int] = frozenset()


def incidence_of(bound: BoundQuery) -> Incidence:
    """The look-ahead :data:`Incidence` of ``bound``: one pass over its
    edges, once per generation call.

    Self-loop edges and unsatisfiable ones are left out: the first says
    nothing a store view of its predicate can express, the second
    empties the answer graph when its own step comes, exactly as
    without look-ahead.
    """
    incidence: Incidence = {}
    for edge in bound.edges:
        if not edge.satisfiable or edge.s_var == edge.o_var:
            continue
        if edge.s_var is not None:
            incidence.setdefault(edge.s_var, []).append((edge, "s"))
        if edge.o_var is not None:
            incidence.setdefault(edge.o_var, []).append((edge, "o"))
    return incidence


def lookahead_views(
    store: TripleStore, incidence: Incidence, edge: BoundEdge, var: int
) -> list[AbstractSet[int]]:
    """What the query's *other* edges on ``var`` can still match.

    One live set-like store view per edge other than ``edge`` incident
    to ``var``: the subjects (objects) of its predicate when its far
    term is a variable, the constant's neighbours under the predicate
    when it is a constant. A node outside any of them is the node
    burnback removes when that edge is extended; smallest view first.
    Only meaningful while ``var`` has no node set — then none of those
    edges has been extended.
    """
    views: list[AbstractSet[int]] = []
    for other, side in incidence.get(var, ()):
        if other.index == edge.index:
            continue
        p = other.p
        assert p is not None
        if side == "s":
            whole, by_const = store.subject_set, store.reverse_adjacency
            const = other.o_const
        else:
            whole, by_const = store.object_set, store.adjacency
            const = other.s_const
        views.append(whole(p) if const is None else by_const(p).get(const, _NO_NODES))
    if len(views) > 1:
        views.sort(key=len)
    return views


class StepInputs(NamedTuple):
    """What constrains one extension: per endpoint, the candidate node
    set (``None`` if free) and, for a free endpoint under look-ahead,
    its :func:`lookahead_views` (else empty)."""

    s_candidates: set[int] | None
    o_candidates: set[int] | None
    s_views: Views
    o_views: Views


def step_inputs(
    ag: AnswerGraph, store: TripleStore, edge: BoundEdge, incidence: Incidence | None
) -> StepInputs | None:
    """The :class:`StepInputs` of a satisfiable ``edge`` against the
    current ``ag``; ``None`` when a look-ahead view is empty, so that
    no data edge can match and none need be retrieved. Shared by the
    kernels and the tuple-at-a-time oracle."""
    s_candidates = _endpoint_candidates(ag, edge.s_var, edge.s_const)
    o_candidates = _endpoint_candidates(ag, edge.o_var, edge.o_const)
    s_views: Views = ()
    o_views: Views = ()
    if incidence:
        # (A free endpoint of a satisfiable edge is a variable.)
        if s_candidates is None:
            s_views = lookahead_views(store, incidence, edge, edge.s_var)
        if o_candidates is None:
            o_views = lookahead_views(store, incidence, edge, edge.o_var)
        if not (all(s_views) and all(o_views)):
            return None
    return StepInputs(s_candidates, o_candidates, s_views, o_views)


def extend_edge_bulk(
    ag: AnswerGraph,
    store: TripleStore,
    edge: BoundEdge,
    deadline: Deadline,
    incidence: Incidence | None = None,
) -> BulkExtension:
    """Matching data edges for ``edge``, as grouped adjacency in the
    direction they were walked.

    Does not mutate ``ag``; the generation driver hands the result
    straight to
    :meth:`~repro.core.answer_graph.AnswerGraph.register_relation`
    (no intermediate pair set) and runs burnback. An unsatisfiable edge
    (unknown predicate or constant) yields no pairs. With ``incidence``
    (:func:`incidence_of`) an endpoint variable bound here for the first
    time keeps only the nodes in its :func:`lookahead_views`; an empty
    view means no pairs, for no walks.
    """
    inputs = step_inputs(ag, store, edge, incidence) if edge.satisfiable else None
    if inputs is None:
        return BulkExtension({}, None, 0)
    assert edge.p is not None
    self_join = edge.s_var is not None and edge.s_var == edge.o_var
    return bulk_extend(
        store,
        edge.p,
        inputs.s_candidates,
        inputs.o_candidates,
        self_join,
        deadline,
        inputs.s_views,
        inputs.o_views,
    )


def _endpoint_candidates(
    ag: AnswerGraph, var: int | None, const: int | None
) -> set[int] | None:
    """The node set constraining this endpoint, or ``None`` if free."""
    if const is not None:
        return {const}
    if var is not None:
        return ag.node_sets.get(var)
    return None
