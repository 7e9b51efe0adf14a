"""Tuple-at-a-time reference implementations of phase 1.

These are the pre-kernel hot loops, retained verbatim in behaviour:
one dict lookup, one ``set.add``, and one ``Deadline.check`` per data
edge walked. They define the semantics — pair sets, node sets, walk
counts, burn counts — that the set-at-a-time kernels in
:mod:`repro.core.kernels` must reproduce bit-for-bit, and they are the
baseline the kernel benchmarks (``benchmarks/bench_kernels.py``) and
the equivalence suite (``tests/core/test_kernels_equivalence.py``)
measure against.

Like the kernels, the oracle consumes only storage-backend protocol
views (``edges`` / ``successors`` / ``predecessors``), so it runs —
and must agree with itself — on every registered backend; the
backend-parity property suite exploits exactly that.

The oracle also keeps the eager representation the kernels gave up:
:func:`register_pairs` indexes every relation in both directions the
moment it is registered, so nothing here ever derives one index from
the other.

Look-ahead (:mod:`repro.core.extension`) is here too, as a membership
test per tuple against the same views the kernels intersect with, so
that walks and burns can be compared with it on as well as off.

Deliberately slow; never call these from production paths.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.core.answer_graph import AnswerGraph, RelKey
from repro.core.burnback import intersect_node_set
from repro.core.extension import ExtensionResult, Incidence, incidence_of, step_inputs
from repro.errors import EvaluationError, PlanError
from repro.graph.store import TripleStore
from repro.planner.plan import (
    AGPlan,
    Chordification,
    Triangle,
    TriangleSide,
    validate_connected_order,
)
from repro.query.algebra import BoundEdge, BoundQuery
from repro.utils.deadline import Deadline


def register_pairs(
    ag: AnswerGraph,
    rel: RelKey,
    s_var: int | None,
    o_var: int | None,
    pairs: Iterable[tuple[int, int]],
) -> None:
    """Register ``rel`` from (s, o) tuples, grouped here one tuple at a
    time into both indexes."""
    fwd: dict[int, set[int]] = {}
    bwd: dict[int, set[int]] = {}
    for s, o in pairs:
        fwd.setdefault(s, set()).add(o)
        bwd.setdefault(o, set()).add(s)
    ag.register_relation(rel, s_var, o_var, forward=fwd, backward=bwd)


def _constrain(ag: AnswerGraph, var: int, nodes: set[int]) -> list[tuple[int, int]]:
    """:func:`intersect_node_set`, its removals one (var, node) each."""
    return [(var, n) for n in intersect_node_set(ag, var, nodes).get(var, ())]


def _in_all(node: int, views) -> bool:
    return all(node in view for view in views)


def extend_edge_reference(
    ag: AnswerGraph,
    store: TripleStore,
    edge: BoundEdge,
    deadline: Deadline,
    incidence: Incidence | None = None,
) -> ExtensionResult:
    """Tuple-at-a-time edge extension (the pre-kernel ``extend_edge``).

    With ``incidence``, look-ahead one tuple at a time: a free endpoint
    takes only nodes in all of its
    :func:`~repro.core.extension.lookahead_views`. A scan does
    not retrieve the edges of a subject that is not, and every edge
    retrieved is a walk whether or not its far end is.
    """
    inputs = step_inputs(ag, store, edge, incidence) if edge.satisfiable else None
    if inputs is None:
        return ExtensionResult(set(), 0)
    p = edge.p
    assert p is not None
    s_candidates, o_candidates, s_views, o_views = inputs
    self_join = edge.s_var is not None and edge.s_var == edge.o_var

    pairs: set[tuple[int, int]] = set()
    walks = 0

    if s_candidates is None and o_candidates is None:
        for s, o in store.edges(p):
            if not _in_all(s, s_views):
                continue
            deadline.check()
            walks += 1
            if self_join and s != o:
                continue
            if _in_all(o, o_views):
                pairs.add((s, o))
        return ExtensionResult(pairs, walks)

    if s_candidates is not None and o_candidates is None:
        for s in s_candidates:
            for o in store.successors(p, s):
                deadline.check()
                walks += 1
                if self_join and s != o:
                    continue
                if _in_all(o, o_views):
                    pairs.add((s, o))
        return ExtensionResult(pairs, walks)

    if o_candidates is not None and s_candidates is None:
        for o in o_candidates:
            for s in store.predecessors(p, o):
                deadline.check()
                walks += 1
                if self_join and s != o:
                    continue
                if _in_all(s, s_views):
                    pairs.add((s, o))
        return ExtensionResult(pairs, walks)

    # Both endpoints constrained: walk from the smaller candidate set
    # and filter on the other.
    assert s_candidates is not None and o_candidates is not None
    if len(s_candidates) <= len(o_candidates):
        for s in s_candidates:
            for o in store.successors(p, s):
                deadline.check()
                walks += 1
                if o not in o_candidates:
                    continue
                if self_join and s != o:
                    continue
                pairs.add((s, o))
    else:
        for o in o_candidates:
            for s in store.predecessors(p, o):
                deadline.check()
                walks += 1
                if s not in s_candidates:
                    continue
                if self_join and s != o:
                    continue
                pairs.add((s, o))
    return ExtensionResult(pairs, walks)


def node_burnback_reference(
    ag: AnswerGraph,
    removals: Iterable[tuple[int, int]],
    deadline: Deadline,
) -> int:
    """Worklist node burnback, one (variable, node) at a time."""
    queue: deque[tuple[int, int]] = deque(removals)
    burned = 0
    node_sets = ag.node_sets
    while queue:
        deadline.check()
        var, node = queue.popleft()
        burned += 1
        for rel, pos in ag.var_positions.get(var, ()):
            index = ag.index(rel, pos)
            other_index = ag.index(rel, "o" if pos == "s" else "s")
            partners = index.pop(node, None)
            if partners is None:
                continue
            s_var, o_var = ag.rel_vars[rel]
            other_var = o_var if pos == "s" else s_var
            for partner in partners:
                opposite = other_index.get(partner)
                if opposite is None:
                    continue
                opposite.discard(node)
                if opposite:
                    continue
                del other_index[partner]
                if other_var is None:
                    continue
                candidates = node_sets.get(other_var)
                if candidates is not None and partner in candidates:
                    candidates.discard(partner)
                    queue.append((other_var, partner))
            if not index:
                ag.empty = True
    return burned


def _rel_of(side: TriangleSide) -> RelKey:
    return (side.ref.kind[0], side.ref.index)


def _adjacency_from(ag: AnswerGraph, side: TriangleSide, var: int):
    if var not in (side.a, side.b):
        raise EvaluationError(f"variable {var} is not an endpoint of {side}")
    return ag.index(_rel_of(side), "s" if side.a == var else "o")


def join_triangle_sides_reference(
    ag: AnswerGraph,
    triangle: Triangle,
    u: int,
    v: int,
    deadline: Deadline,
) -> set[tuple[int, int]]:
    """Triple-nested pair loop over the two sides opposite (u, v)."""
    z = next(var for var in triangle.vars if var not in (u, v))
    sides = [s for s in triangle.sides if {s.a, s.b} != {u, v}]
    if len(sides) != 2:
        raise EvaluationError(f"triangle {triangle} lacks sides opposite ({u},{v})")
    side_u = sides[0] if u in (sides[0].a, sides[0].b) else sides[1]
    side_v = sides[1] if side_u is sides[0] else sides[0]
    from_u = _adjacency_from(ag, side_u, u)  # u -> {z}
    from_z = _adjacency_from(ag, side_v, z)  # z -> {v}
    pairs: set[tuple[int, int]] = set()
    for x, zs in from_u.items():
        for mid in zs:
            targets = from_z.get(mid)
            if not targets:
                continue
            for y in targets:
                deadline.check()
                pairs.add((x, y))
    return pairs


def materialize_chords_reference(
    ag: AnswerGraph,
    chordification: Chordification,
    deadline: Deadline,
) -> int:
    """Chord materialization through explicit pair sets."""
    total = 0
    for chord_index in chordification.order:
        if ag.empty:
            break
        chord = chordification.chords[chord_index]
        rel: RelKey = ("c", chord.index)
        pairs: set[tuple[int, int]] | None = None
        for triangle in chordification.triangles:
            refs = [s.ref for s in triangle.sides]
            if ("chord", chord.index) not in [tuple(r) for r in refs]:
                continue
            others = [
                s
                for s in triangle.sides
                if not (s.ref.kind == "chord" and s.ref.index == chord.index)
            ]
            if not all(ag.is_materialized(_rel_of(s)) for s in others):
                continue
            joined = join_triangle_sides_reference(
                ag, triangle, chord.u, chord.v, deadline
            )
            pairs = joined if pairs is None else (pairs & joined)
        if pairs is None:
            raise EvaluationError(
                f"chord {chord.index} has no triangle with materialized sides; "
                "chord order is invalid"
            )
        register_pairs(ag, rel, chord.u, chord.v, pairs)
        total += len(pairs)
        removals = _constrain(ag, chord.u, set(ag.forward(rel)))
        removals += _constrain(ag, chord.v, set(ag.backward(rel)))
        if removals:
            node_burnback_reference(ag, removals, deadline)
    return total


def _prune_side_reference(
    ag: AnswerGraph, triangle: Triangle, side: TriangleSide, deadline: Deadline
) -> tuple[int, list[tuple[int, int]]]:
    """Per-pair triangle-consistency pruning of one side."""
    other1, other2 = triangle.sides_excluding(side.ref)
    x, y = side.a, side.b
    side_x = other1 if x in (other1.a, other1.b) else other2
    side_y = other2 if side_x is other1 else other1
    from_x = _adjacency_from(ag, side_x, x)
    from_y = _adjacency_from(ag, side_y, y)

    rel = _rel_of(side)
    fwd, bwd = ag.forward(rel), ag.backward(rel)
    doomed: list[tuple[int, int]] = []
    for s, objs in fwd.items():
        mids_s = from_x.get(s)
        if not mids_s:
            doomed.extend((s, o) for o in objs)
            continue
        for o in objs:
            deadline.check()
            mids_o = from_y.get(o)
            if not mids_o or mids_s.isdisjoint(mids_o):
                doomed.append((s, o))

    if not doomed:
        return 0, []
    ag.retire_live(rel)
    removals: list[tuple[int, int]] = []
    s_var, o_var = ag.rel_vars[rel]
    node_sets = ag.node_sets
    for s, o in doomed:
        objs = fwd.get(s)
        if objs is not None:
            objs.discard(o)
            if not objs:
                del fwd[s]
                if s_var is not None and s in node_sets.get(s_var, ()):
                    node_sets[s_var].discard(s)
                    removals.append((s_var, s))
        subs = bwd.get(o)
        if subs is not None:
            subs.discard(s)
            if not subs:
                del bwd[o]
                if o_var is not None and o in node_sets.get(o_var, ()):
                    node_sets[o_var].discard(o)
                    removals.append((o_var, o))
    if not fwd:
        ag.empty = True
    return len(doomed), removals


def edge_burnback_reference(
    ag: AnswerGraph,
    triangles: Iterable[Triangle],
    deadline: Deadline,
) -> tuple[int, int]:
    """Per-pair edge burnback to fixpoint."""
    triangle_list = list(triangles)
    rounds = 0
    total_removed = 0
    changed = True
    while changed:
        deadline.check_now()
        changed = False
        rounds += 1
        for triangle in triangle_list:
            for side in triangle.sides:
                if not ag.is_materialized(_rel_of(side)):
                    continue
                removed, removals = _prune_side_reference(
                    ag, triangle, side, deadline
                )
                if removed:
                    total_removed += removed
                    changed = True
                if removals:
                    node_burnback_reference(ag, removals, deadline)
    return rounds, total_removed


def generate_answer_graph_reference(
    bound: BoundQuery,
    plan: AGPlan,
    chordification: Chordification | None = None,
    deadline: Deadline | None = None,
    edge_burnback_enabled: bool = False,
    keep_chords: bool = False,
    lookahead: bool = True,
):
    """Phase-1 driver wired to the tuple-at-a-time primitives.

    Signature and returned ``(AnswerGraph, GenerationStats)`` match
    :func:`repro.core.generation.generate_answer_graph` so the two can
    be raced and diffed field-for-field.
    """
    from repro.core.generation import GenerationStats
    from repro.core.triangles import drop_chords

    if deadline is None:
        deadline = Deadline.unlimited()
    validate_connected_order(plan.order, [e.term_tokens() for e in bound.edges])
    if len(plan.order) != len(bound.edges):
        raise PlanError(
            f"plan covers {len(plan.order)} of {len(bound.edges)} query edges"
        )
    incidence = incidence_of(bound) if lookahead else None

    ag = AnswerGraph(bound)
    stats = GenerationStats()

    for eid in plan.order:
        if ag.empty:
            stats.step_walks.append(0)
            continue
        edge = bound.edges[eid]
        result = extend_edge_reference(ag, bound.store, edge, deadline, incidence)
        stats.edge_walks += result.edge_walks
        stats.step_walks.append(result.edge_walks)
        rel = ("e", eid)
        register_pairs(ag, rel, edge.s_var, edge.o_var, result.pairs)

        removals: list[tuple[int, int]] = []
        if edge.s_var is not None:
            removals += _constrain(ag, edge.s_var, set(ag.forward(rel)))
        if edge.o_var is not None:
            removals += _constrain(ag, edge.o_var, set(ag.backward(rel)))
        if removals:
            stats.burned_nodes += node_burnback_reference(ag, removals, deadline)

    if chordification is not None and not chordification.is_trivial and not ag.empty:
        stats.chord_pairs = materialize_chords_reference(ag, chordification, deadline)
        if edge_burnback_enabled and not ag.empty:
            rounds, removed = edge_burnback_reference(
                ag, chordification.triangles, deadline
            )
            stats.edge_burnback_rounds = rounds
            stats.spurious_pairs_removed = removed
        if not keep_chords:
            drop_chords(ag, chordification)

    return ag, stats
