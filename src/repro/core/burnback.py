"""Node burnback and edge burnback.

**Node burnback** (§3): after an edge-extension step, "nodes in the AG
that failed to extend are removed. This 'node burnback' cascades."
Implemented as a *batched* worklist fixpoint: removals are grouped per
variable and each batch is applied to every incident relation with
bulk set operations. Any partner left without pairs in a relation
loses its membership in the opposite variable's node set, which feeds
the next batch. The fixpoint (and the count of removals processed) is
identical to the tuple-at-a-time reference
(:func:`repro.core.reference.node_burnback_reference`); only the
processing order differs.

How a batch leaves a relation depends on which of the relation's two
indexes exist (:mod:`repro.core.answer_graph` builds the second one on
demand). With both, the batch is popped out of the index it keys and
subtracted from the buckets of its partners in the other — one
``set.difference_update`` per touched bucket
(:func:`repro.core.kernels.subtract_from_buckets`). With one, a batch
that is small against the relation has the other built and goes the
same way; a large batch — the usual case right after an extension,
which on the paper's snowflakes burns most of what was walked — is one
semi-join pass over the index that exists, and the relation stays
singly indexed (:data:`PASS_BATCH_RATIO`).

**Edge burnback** (§4.I, the paper's work-in-progress extension,
implemented here): with the query triangulated, every triangle's sides
must be pairwise *triple-consistent* — a pair (x, y) of one side
survives only if some node z completes it to a materialized triangle
through the other two sides. Enforcing this to fixpoint removes the
spurious edges that node burnback alone cannot see in cyclic queries
(Fig. 4); for treewidth-2 queries (e.g. the paper's diamonds) the
result is the ideal answer graph. The per-side prune computes each
source node's surviving object set with ``set`` intersections and
C-level ``isdisjoint`` probes, then applies the survivors in bulk.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable

from repro.core.answer_graph import AnswerGraph, RelKey
from repro.core.kernels import Adjacency, strip_from_buckets, subtract_from_buckets
from repro.errors import EvaluationError
from repro.planner.plan import Triangle, TriangleSide
from repro.utils.deadline import Deadline

#: A cascade batch reaches a relation that has one index. If the batch
#: times this is at least that index's key count, the batch is removed
#: by one pass over the index; if it is smaller, the missing index is
#: built (once: today's cost plus that pass at worst) and the batch and
#: every later one are removed by probe. A pass is cheaper than a build
#: for the batch at hand, so the ratio only has to catch the relation
#: that stays large under a long run of small batches: measured on the
#: paper's ten queries, phase 1 is flat from 64 up and 20% slower at 8.
PASS_BATCH_RATIO = 128

#: var -> nodes already deleted from its node set, still to be chased
Removals = dict[int, set[int]]


def node_burnback(
    ag: AnswerGraph,
    removals: Removals,
    deadline: Deadline,
    changed_rels: "set[RelKey] | None" = None,
) -> int:
    """Cascade node removals to fixpoint.

    ``removals`` seeds the worklist, per variable: nodes already deleted
    from that variable's node set whose incident AG pairs must now be
    chased (its sets are consumed). Returns the total number of
    distinct (variable, node) removals processed. ``changed_rels``,
    when given, accumulates the relation keys whose indexes this
    cascade actually shrank — the edge-burnback fixpoint uses it to
    skip re-pruning triangles whose relations are untouched since their
    last prune.
    """
    pending = {var: batch for var, batch in removals.items() if batch}
    burned = 0
    node_sets = ag.node_sets
    while pending:
        var, batch = pending.popitem()
        deadline.check_every(len(batch))
        burned += len(batch)
        for rel, pos in ag.var_positions.get(var, ()):
            far_pos = "o" if pos == "s" else "s"
            near, far = ag.built(rel, pos), ag.built(rel, far_pos)
            if near is None or far is None:
                only = far if near is None else near
                if len(batch) * PASS_BATCH_RATIO < len(only):
                    near = ag.index(rel, pos, deadline)
                    far = ag.index(rel, far_pos, deadline)
            emptied: Iterable[int]
            if near is None:
                # The batch sits inside the buckets of the one index.
                assert far is not None
                shrunk, emptied = strip_from_buckets(far, batch)
                if not shrunk:
                    continue
            else:
                # Pop the batch out of the near index, collecting the
                # set of far-side partners whose buckets must shrink.
                # Probe the smaller side: a cascade batch can dwarf a
                # relation's remaining index (and vice versa).
                present = near.keys() & batch if len(batch) > len(near) else batch
                popped = [ps for node in present if (ps := near.pop(node, None))]
                if not popped:
                    continue
                touched = set().union(*popped)
                if far is None:
                    # A partner is gone iff no remaining bucket holds it.
                    touched.difference_update(*near.values())
                    emptied = touched
                else:
                    emptied = subtract_from_buckets(far, touched, batch)
            if changed_rels is not None:
                changed_rels.add(rel)
            s_var, o_var = ag.rel_vars[rel]
            other_var = o_var if pos == "s" else s_var
            if other_var is not None and emptied:
                candidates = node_sets.get(other_var)
                if candidates is not None:
                    dropped = candidates.intersection(emptied)
                    if dropped:
                        candidates -= dropped
                        pending.setdefault(other_var, set()).update(dropped)
            if not (far if near is None else near):
                ag.empty = True
    return burned


def intersect_node_set(
    ag: AnswerGraph, var: int, new_nodes: AbstractSet[int]
) -> Removals:
    """Constrain ``var``'s node set to ``new_nodes``; return removals.

    The first relation to touch a variable installs its node set
    outright (no cascade possible — nothing else references those
    nodes yet). Later relations intersect, and the nodes that drop out
    come back as ``{var: dropped}`` (``{}`` if none did) for
    :func:`node_burnback` to cascade.

    ``new_nodes`` may be a live ``dict_keys`` view of an AG index — it
    is only read, and copied exactly once on first installation.
    """
    current = ag.node_sets.get(var)
    if current is None:
        ag.node_sets[var] = set(new_nodes)
        return {}
    removed = current.difference(new_nodes)
    if not removed:
        return {}
    current -= removed
    return {var: removed}


def constrain_endpoints(ag: AnswerGraph, rel: RelKey) -> Removals:
    """:func:`intersect_node_set` for each variable endpoint of the
    freshly registered ``rel``, with the nodes ``rel`` holds there."""
    removals: Removals = {}
    for var, pos in zip(ag.rel_vars[rel], "so"):
        if var is not None:
            # (A self-join's second round finds nothing left to drop,
            # so it cannot overwrite the first one's entry.)
            removals.update(intersect_node_set(ag, var, ag.endpoints(rel, pos)))
    return removals


# ----------------------------------------------------------------------
# Edge burnback
# ----------------------------------------------------------------------


def rel_of(side: TriangleSide) -> RelKey:
    return (side.ref.kind[0], side.ref.index)  # "edge"->"e", "chord"->"c"


def side_index(
    ag: AnswerGraph, side: TriangleSide, var: int, deadline: Deadline
) -> Adjacency:
    """The index of ``side`` keyed by its endpoint variable ``var``."""
    if var not in (side.a, side.b):
        raise EvaluationError(f"variable {var} is not an endpoint of {side}")
    return ag.index(rel_of(side), "s" if side.a == var else "o", deadline)


def _prune_side(
    ag: AnswerGraph, triangle: Triangle, side: TriangleSide, deadline: Deadline
) -> tuple[int, Removals]:
    """Remove pairs of ``side`` that no node z completes to a triangle.

    ``side`` spans variables (x, y); the triangle's other two sides
    connect x—z and y—z. A pair (s, o) of ``side`` survives iff the
    z-partners of s (through the x—z side) intersect the z-partners of
    o (through the y—z side).

    Returns (pairs removed, node removals to cascade).
    """
    other1, other2 = triangle.sides_excluding(side.ref)
    x, y = side.a, side.b
    side_x = other1 if x in (other1.a, other1.b) else other2
    side_y = other2 if side_x is other1 else other1
    from_x = side_index(ag, side_x, x, deadline)
    # Both directions of the y—z side: ``from_y`` keys it by y
    # (o -> {z partners}), ``inv_y`` by z (z -> {o partners}). The
    # inverse turns the per-object membership probe into one C-level
    # union per source (below).
    z = side_y.b if side_y.a == y else side_y.a
    from_y = side_index(ag, side_y, y, deadline)
    inv_y = side_index(ag, side_y, z, deadline)

    # Pairs, not whole nodes, leave this side: keep both its indexes,
    # so that neither is ever derived from the other afterwards.
    rel = rel_of(side)
    fwd, bwd = ag.forward(rel, deadline), ag.backward(rel, deadline)

    # Pass 1 (read-only): per source node, the surviving object set —
    # ``keep = objs ∩ ⋃_{z ∈ from_x[s]} inv_y[z]`` (an object survives
    # iff some shared z completes the triangle). The union form does
    # one bulk ``set.union`` per source instead of one ``isdisjoint``
    # probe per object; when a source's mid set dwarfs its object
    # bucket (union would visit far more pairs than probing), it falls
    # back to the per-object probe with a C-level key prefilter.
    removed = 0
    shrunk: list[tuple[int, set[int], set[int]]] = []  # (s, keep, gone)
    y_keys = from_y.keys()
    inv_get = inv_y.get
    for s, objs in fwd.items():
        deadline.check_every(len(objs))
        mids_s = from_x.get(s)
        if not mids_s:
            removed += len(objs)
            shrunk.append((s, set(), set(objs)))
            continue
        if len(mids_s) <= 2 * len(objs):
            targets = [t for mid in mids_s if (t := inv_get(mid))]
            if not targets:
                keep = set()
            elif len(targets) == 1:
                keep = objs & targets[0]
            else:
                keep = objs.intersection(set().union(*targets))
        else:
            candidates = objs & y_keys
            keep = {o for o in candidates if not mids_s.isdisjoint(from_y[o])}
        if len(keep) != len(objs):
            removed += len(objs) - len(keep)
            shrunk.append((s, keep, objs - keep))

    if not shrunk:
        return 0, {}
    ag.retire_live(rel)

    # Pass 2: apply survivors in bulk and collect node-set removals.
    removals: Removals = {}
    s_var, o_var = ag.rel_vars[rel]
    node_sets = ag.node_sets
    doomed_by_o: dict[int, set[int]] = {}
    for s, keep, gone in shrunk:
        if keep:
            fwd[s] = keep
        else:
            del fwd[s]
            if s_var is not None and s in node_sets.get(s_var, ()):
                node_sets[s_var].discard(s)
                removals.setdefault(s_var, set()).add(s)
        for o in gone:
            bucket = doomed_by_o.get(o)
            if bucket is None:
                doomed_by_o[o] = {s}
            else:
                bucket.add(s)
    for o, gone_subs in doomed_by_o.items():
        subs = bwd.get(o)
        if subs is None:
            continue
        subs -= gone_subs
        if not subs:
            del bwd[o]
            if o_var is not None and o in node_sets.get(o_var, ()):
                node_sets[o_var].discard(o)
                removals.setdefault(o_var, set()).add(o)
    if not fwd:
        ag.empty = True
    return removed, removals


def edge_burnback(
    ag: AnswerGraph,
    triangles: Iterable[Triangle],
    deadline: Deadline,
) -> tuple[int, int]:
    """Enforce triangle consistency on every side, to fixpoint.

    Interleaves with node burnback: nodes stripped of their last pair
    cascade as usual ("checking the chords' materializations to chase
    what needs to be removed on cascade", §4.I). All relations shrink
    monotonically, so the fixpoint terminates.

    The fixpoint tracks a **version counter per relation** (bumped on
    every prune or cascade that shrinks it) and stamps each side with
    the versions of its triangle's three relations *as the prune
    validated them* (post its own removals, pre any cascade): a side
    whose relations are all unchanged since that stamp would be a
    guaranteed no-op (pruning is a deterministic, idempotent function
    of those three indexes) and is skipped outright. The sequence of
    *mutating* prunes — and therefore every removal, the per-round
    ``changed`` flag, and the round count — is identical to the
    unversioned reference fixpoint; what disappears is the re-probe of
    every surviving pair in already-settled rounds, which previously
    dominated the fixpoint's cost (the final verification round alone
    re-probed the entire answer graph).

    Returns (rounds executed, total pairs removed).
    """
    triangle_list = list(triangles)
    rounds = 0
    total_removed = 0
    #: rel -> generation, bumped whenever the relation's indexes shrink.
    version: dict[RelKey, int] = {}
    #: (triangle idx, side idx) -> the three relation versions at the
    #: side's last prune (self, then the triangle's other two sides).
    pruned_at: dict[tuple[int, int], tuple[int, int, int]] = {}
    changed = True
    while changed:
        deadline.check_now()
        changed = False
        rounds += 1
        for t_idx, triangle in enumerate(triangle_list):
            for s_idx, side in enumerate(triangle.sides):
                rel = rel_of(side)
                if not ag.is_materialized(rel):
                    continue
                other1, other2 = triangle.sides_excluding(side.ref)
                rels = (rel, rel_of(other1), rel_of(other2))
                stamp = (
                    version.get(rels[0], 0),
                    version.get(rels[1], 0),
                    version.get(rels[2], 0),
                )
                key = (t_idx, s_idx)
                if pruned_at.get(key) == stamp:
                    continue
                removed, removals = _prune_side(ag, triangle, side, deadline)
                if removed:
                    total_removed += removed
                    changed = True
                    version[rel] = version.get(rel, 0) + 1
                # Stamp BEFORE applying the cascade's version bumps: the
                # prune validated the pre-cascade state of the three
                # relations (its own removals included — pruning is
                # idempotent over its own output), so a cascade that
                # shrinks any of them, even one triggered by this very
                # prune through relations outside the triangle, must
                # leave the stamp stale and force a re-prune.
                pruned_at[key] = (
                    version.get(rels[0], 0),
                    version.get(rels[1], 0),
                    version.get(rels[2], 0),
                )
                if removals:
                    cascaded: set[RelKey] = set()
                    node_burnback(ag, removals, deadline, cascaded)
                    for touched_rel in cascaded:
                        version[touched_rel] = version.get(touched_rel, 0) + 1
    return rounds, total_removed
