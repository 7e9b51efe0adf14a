"""Chord materialization for triangulated cyclic queries.

"During evaluation, a chord is maintained as the intersection of the
materialized joins of the opposite two edges for each triangle in which
it participates." — §4.I

Chords are materialized in the Triangulator's bottom-up order
(innermost triangles first), so when a chord is built, the other two
sides of at least one of its triangles — real query edges or
previously-built chords — are already materialized. If the chord
participates in further triangles whose sides are also ready, the
materialization is intersected with those joins as well; any remaining
triangles are enforced later by edge burnback.

The two-step join runs as a set-at-a-time kernel
(:func:`repro.core.kernels.compose_adjacency`: one ``set.union`` per
source node), multi-triangle intersection as
:func:`repro.core.kernels.intersect_pairs`, and the result is
registered as pre-grouped ``u -> {v}`` adjacency — the explicit pair
set of the tuple-at-a-time implementation is never materialized, and
the ``v -> {u}`` index only if a later join or burnback reads it.
"""

from __future__ import annotations

from repro.core.answer_graph import AnswerGraph, RelKey
from repro.core.burnback import (
    constrain_endpoints,
    node_burnback,
    rel_of,
    side_index,
)
from repro.core.kernels import (
    Adjacency,
    adjacency_size,
    compose_adjacency,
    intersect_pairs,
)
from repro.errors import EvaluationError
from repro.planner.plan import Chordification, Triangle
from repro.utils.deadline import Deadline


def join_triangle_adjacency(
    ag: AnswerGraph,
    triangle: Triangle,
    u: int,
    v: int,
    deadline: Deadline,
) -> Adjacency:
    """Join the two triangle sides opposite the (u, v) chord.

    Returns the composed u→v adjacency: ``{x: {y}}`` for all (x, y)
    such that some node z of the triangle's third variable links x—z
    and z—y through the two materialized sides.
    """
    z = next(var for var in triangle.vars if var not in (u, v))
    sides = [s for s in triangle.sides if {s.a, s.b} != {u, v}]
    if len(sides) != 2:
        raise EvaluationError(f"triangle {triangle} lacks sides opposite ({u},{v})")
    side_u = sides[0] if u in (sides[0].a, sides[0].b) else sides[1]
    side_v = sides[1] if side_u is sides[0] else sides[0]
    from_u = side_index(ag, side_u, u, deadline)  # u -> {z}
    from_z = side_index(ag, side_v, z, deadline)  # z -> {v}
    return compose_adjacency(from_u, from_z, deadline)


def materialize_chords(
    ag: AnswerGraph,
    chordification: Chordification,
    deadline: Deadline,
) -> int:
    """Materialize every chord in plan order; returns total chord pairs.

    Each chord's relation is the intersection of the joins of all its
    triangles whose other two sides are already materialized. The
    chord's endpoints then constrain the AG node sets, cascading
    through node burnback.
    """
    total = 0
    for chord_index in chordification.order:
        if ag.empty:
            break
        chord = chordification.chords[chord_index]
        rel: RelKey = ("c", chord.index)
        adj: Adjacency | None = None
        for triangle in chordification.triangles:
            refs = [s.ref for s in triangle.sides]
            if ("chord", chord.index) not in [tuple(r) for r in refs]:
                continue
            others = [
                s
                for s in triangle.sides
                if not (s.ref.kind == "chord" and s.ref.index == chord.index)
            ]
            if not all(ag.is_materialized(rel_of(s)) for s in others):
                continue  # sides not ready yet; edge burnback covers it
            joined = join_triangle_adjacency(ag, triangle, chord.u, chord.v, deadline)
            adj = joined if adj is None else intersect_pairs(adj, joined, deadline)
        if adj is None:
            raise EvaluationError(
                f"chord {chord.index} has no triangle with materialized sides; "
                "chord order is invalid"
            )
        ag.register_relation(rel, chord.u, chord.v, forward=adj)
        total += adjacency_size(adj)
        removals = constrain_endpoints(ag, rel)
        if removals:
            node_burnback(ag, removals, deadline)
    return total


def drop_chords(ag: AnswerGraph, chordification: Chordification) -> None:
    """Remove chord relations (phase 2 joins only real query edges)."""
    for chord in chordification.chords:
        ag.drop_relation(("c", chord.index))
