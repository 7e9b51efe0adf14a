"""Set-at-a-time execution kernels for answer-graph generation.

The original phase-1 implementation was tuple-at-a-time Python: one
dict lookup, one ``set.add``, and one ``Deadline.check`` call *per data
edge walked*. These kernels replace that interpreter-bound inner loop
with bulk ``set``/``dict`` algebra — ``set.intersection``, ``set.union``,
``set.difference``, ``isdisjoint``, and dict/set comprehensions — which
executes in C, the same keyed-index, batch-oriented discipline used by
production RDF stores. Deadline polling is hoisted to per-block
granularity: one :meth:`~repro.utils.deadline.Deadline.check_every`
call per candidate node (or per produced block), not one
:meth:`~repro.utils.deadline.Deadline.check` per pair.

An edge extension is one call of the store's
:meth:`~repro.graph.backends.base.StorageBackend.gather` — candidates
in, filtered neighbour sets and the walk count out — so each physical
layout does the step in its own vocabulary (``set & set`` over hash
indexes, whole-column numpy primitives over sorted columns) and this
module keeps what is the same for all of them: which of the four
candidate configurations a step is (:func:`bulk_extend`) and which
look-ahead views can filter anything (:func:`_filtering`).

Edge-walk accounting is preserved **exactly**: the paper's cost model
and Table-1 figures count data edges *retrieved* (before far-endpoint
filtering), so walk counts come from index sizes (set lengths, offset
differences) rather than loop iterations. A step that walks
from candidates counts every edge of theirs, whatever candidate set or
look-ahead views then filter the far end; a scan counts the edges of
the subjects it reads, which are all of the label's unless look-ahead
views narrowed the subject keys first (one key-set intersection, before
any edge is touched). The retained tuple-at-a-time implementations in
:mod:`repro.core.reference` define the semantics these kernels must
match bit-for-bit; the equivalence is asserted property-style in
``tests/core/test_kernels_equivalence.py``.

Look-ahead views (:func:`repro.core.extension.lookahead_views`) reach
:func:`bulk_extend` as sequences of live set-likes, one per other query
edge on an endpoint variable this step binds. They go through the same
far-endpoint filter a bound endpoint's candidate set does —
``gather``'s ``far_filters`` — and an empty sequence is the plain copy:
there is one kernel, with or without them. A view only
earns its probes where the predicate has far endpoints that dangle
outside it; one that holds them all is dropped before the buckets are
walked (:func:`_filtering`), so a store without dangling nodes is read
at the price of the plain copy.

All kernels return *fresh* containers (new dicts holding new sets)
unless documented otherwise, so callers may hand results straight to
:meth:`repro.core.answer_graph.AnswerGraph.register_relation`, which
takes ownership.

An extension returns the adjacency it *walked* and nothing else: keyed
by subject when it walked from subjects (or scanned the label), by
object when it walked from objects. The opposite index is not a product
of phase 1. :class:`~repro.core.answer_graph.AnswerGraph` derives it the
first time something reads it, from what burnback has left of the
relation, by :func:`invert_adjacency` over the relation's own pairs; no
index build reads the store. Inversion costs one interpreted step per
pair and one new ``set`` per distinct key, and the new set is most of
it: a semi-join against the store's reverse index would pay for the
same sets and visit more elements besides.

Adjacency convention: ``adj[x] = {y, ...}`` with no empty value sets —
a key with an empty set is dropped, matching the AnswerGraph index
invariant.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, AbstractSet, Iterable, NamedTuple, Sequence

from repro.utils.deadline import Deadline

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.graph.backends.base import StorageBackend
    from repro.graph.store import TripleStore

    StoreViews = TripleStore | StorageBackend

#: Kernel-owned adjacencies are plain dict-of-sets, whatever layout
#: they were gathered from.
Adjacency = dict[int, set[int]]
#: Set-like views a far endpoint is intersected with, one after another
#: (plain sets, dict key views or a backend's own set-likes).
Views = Sequence[AbstractSet[int]]

#: Pairs to accumulate before one :meth:`Deadline.check_every` call —
#: polling per 4k-pair block keeps the call overhead out of the hot loop
#: while bounding timeout overshoot.
BLOCK = 4096


class BulkExtension(NamedTuple):
    """Outcome of one bulk edge-extension.

    Exactly one of ``forward`` (the ``s -> {o}`` adjacency of the
    matching pairs) and ``backward`` (``o -> {s}``) is set: the
    direction the kernel walked. ``walks`` is the number of data edges
    retrieved, identical to the tuple-at-a-time count. ``predicate`` is
    set when the pairs are *all* of that predicate's between their
    subjects and their objects — every extension but a self-join, which
    keeps the diagonal only (what ``register_relation(predicate=)``
    wants to know).
    """

    forward: Adjacency | None
    backward: Adjacency | None
    walks: int
    predicate: int | None = None


# ----------------------------------------------------------------------
# Adjacency helpers
# ----------------------------------------------------------------------


def adjacency_size(adj: Adjacency) -> int:
    """Total number of pairs in ``adj`` (sum of value-set sizes)."""
    return sum(map(len, adj.values()))


def invert_adjacency(adj: Adjacency, deadline: Deadline | None = None) -> Adjacency:
    """The reverse adjacency ``{y: {x | y in adj[x]}}``, as fresh containers.

    Inherently one interpreted step per pair; with ``deadline`` the
    budget is polled once per :data:`BLOCK` source keys, with that
    block's pair count, so a huge inversion still honours cooperative
    timeouts.
    """
    out: Adjacency = {}
    get = out.get
    items = iter(adj.items())
    while block := list(islice(items, BLOCK)):
        pairs = 0
        for x, ys in block:
            pairs += len(ys)
            for y in ys:
                bucket = get(y)
                if bucket is None:
                    out[y] = {x}
                else:
                    bucket.add(x)
        if deadline is not None:
            deadline.check_every(pairs)
    return out


def compose_adjacency(
    from_u: Adjacency, from_z: Adjacency, deadline: Deadline | None = None
) -> Adjacency:
    """Relational composition ``{x: ⋃ from_z[mid] for mid in from_u[x]}``.

    This is the two-step join behind chord materialization ("the
    intersection of the materialized joins of the opposite two edges",
    §4.I) executed as one ``set().union(*...)`` per source node instead
    of a triple-nested pair loop.
    """
    out: Adjacency = {}
    for x, mids in from_u.items():
        targets = [t for mid in mids if (t := from_z.get(mid))]
        if not targets:
            continue
        composed = set().union(*targets)
        out[x] = composed
        if deadline is not None:
            deadline.check_every(len(composed))
    return out


# ----------------------------------------------------------------------
# Bulk extension
# ----------------------------------------------------------------------


def bulk_extend(
    store: "StoreViews",
    p: int,
    s_candidates: AbstractSet[int] | None,
    o_candidates: AbstractSet[int] | None,
    self_join: bool,
    deadline: Deadline,
    s_views: Views = (),
    o_views: Views = (),
) -> BulkExtension:
    """Set-at-a-time edge extension against predicate ``p``.

    Mirrors the four candidate configurations of the tuple-at-a-time
    :func:`repro.core.reference.extend_edge_reference` — free scan,
    subject-driven, object-driven, and both-endpoints (walking the
    smaller candidate set, ties to subjects) — with identical walk
    counts and identical resulting pair sets, each as one
    ``store.gather`` call.

    ``s_views`` / ``o_views`` are the look-ahead views of an endpoint
    that has no candidates yet (see the module docstring): a node
    outside any of them is not kept. They filter the far endpoint of a
    directed step; a scan is walked from the subjects that are in every
    one of ``s_views``.
    """
    reverse = False
    if s_candidates is None and o_candidates is None:
        subjects = store.subject_set(p)
        nodes = None  # every subject
        if s_views:
            nodes = subjects
            for view in s_views:
                nodes = nodes & view
        far_filters = _filtering(
            o_views,
            store.object_set(p),
            len(subjects if nodes is None else nodes),
            len(subjects),
        )
    elif o_candidates is None:
        nodes = s_candidates
        far_filters = _filtering(
            o_views, store.object_set(p), len(nodes), len(store.subject_set(p))
        )
    elif s_candidates is None:
        reverse = True
        nodes = o_candidates
        far_filters = _filtering(
            s_views, store.subject_set(p), len(nodes), len(store.object_set(p))
        )
    # Both bound: walk from the smaller candidate set and filter on the
    # other — same tie-break (subjects win) as the reference.
    elif len(s_candidates) <= len(o_candidates):
        nodes, far_filters = s_candidates, (o_candidates,)
    else:
        reverse = True
        nodes, far_filters = o_candidates, (s_candidates,)
    adj, walks = store.gather(
        p, nodes, far_filters, reverse=reverse, self_join=self_join, deadline=deadline
    )
    predicate = None if self_join else p
    if reverse:
        # Walked over the POS index: ``o -> {s}`` is the natural product.
        return BulkExtension(None, adj, walks, predicate)
    return BulkExtension(adj, None, walks, predicate)


def _filtering(
    views: Views, far_nodes: AbstractSet[int], n_read: int, n_near: int
) -> Views:
    """``views`` without those that cannot drop a far endpoint of this
    step, i.e. that hold every one of the predicate's ``far_nodes``.

    Whether the predicate has *dangling far endpoints* for a view is
    read off the store, not left to the caller: the subset test stops
    at the first far node outside the view (at once where some dangle,
    the case look-ahead is for) and pays a probe per distinct far node
    only where none does — there it saves a probe per *edge* walked,
    each bucket being copied instead of intersected. Asked only when
    the step has ``n_read`` candidates for at least half the predicate's
    ``n_near`` near nodes (how many of them the predicate has is known
    only inside ``gather``): a point lookup must not pay for a pass over
    the predicate. Dropping such a view, or keeping it, changes no pair
    kept and no walk counted.
    """
    if not views or 2 * n_read < n_near:
        return views
    return [view for view in views if not far_nodes <= view]


# ----------------------------------------------------------------------
# Bulk removal (the burnback inner step)
# ----------------------------------------------------------------------


def subtract_from_buckets(
    index: Adjacency,
    touched: Iterable[int],
    removed: AbstractSet[int],
) -> list[int]:
    """Bulk-remove ``removed`` from the ``touched`` buckets of ``index``.

    For every key in ``touched``, the bucket set is shrunk by one
    C-level ``set.difference_update``; keys whose bucket drains are
    deleted from ``index`` and returned (the burnback cascade frontier).
    """
    emptied: list[int] = []
    for key in touched:
        bucket = index.get(key)
        if bucket is None:
            continue
        # set difference costs O(len of the iterated side): shrink in
        # place when the removal set is the smaller side, rebuild the
        # bucket otherwise (a large cascade batch would otherwise be
        # re-scanned once per touched bucket).
        if len(removed) <= len(bucket):
            bucket -= removed
        else:
            bucket = bucket - removed
            if bucket:
                index[key] = bucket
        if not bucket:
            del index[key]
            emptied.append(key)
    return emptied


def strip_from_buckets(
    index: Adjacency, removed: AbstractSet[int]
) -> tuple[bool, list[int]]:
    """Bulk-remove ``removed`` from *every* bucket of ``index``.

    The semi-join pass for when the index keyed by the removed nodes
    does not exist: one C-level ``isdisjoint`` per bucket finds the
    buckets to shrink. Returns whether any did, and the keys whose
    bucket drained (deleted from ``index``).
    """
    hit = [key for key, bucket in index.items() if not bucket.isdisjoint(removed)]
    return bool(hit), subtract_from_buckets(index, hit, removed)
