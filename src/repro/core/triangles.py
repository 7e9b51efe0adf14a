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

The intersection is evaluated as Generic Join does it (Ngo, Ré & Rudra,
"Skew strikes back", 2013), not as one join per triangle: only the
ready triangle whose two sides hold the fewest pairs is composed — one
``set.union`` per source node
(:func:`repro.core.kernels.compose_adjacency`) — and a composed pair
``(x, y)`` is kept only if every other ready triangle has a third node
next to both, one C-level ``isdisjoint`` of ``x``'s and ``y``'s buckets
towards it. No second composition is ever built. The result is
registered as pre-grouped ``u -> {v}`` adjacency — the explicit pair set
of the tuple-at-a-time implementation
(:func:`repro.core.reference.materialize_chords_reference`, compose ∩
compose, the oracle) is never materialized, and the ``v -> {u}`` index
only if a later join, burnback or phase 2 reads it.

The engine keeps chords in the AG through phase 2, where a chord is one
more join between its endpoints (:mod:`repro.core.defactorize`), and
drops them afterwards (:func:`drop_chords`).
"""

from __future__ import annotations

from repro.core.answer_graph import AnswerGraph, RelKey
from repro.core.burnback import (
    constrain_endpoints,
    node_burnback,
    rel_of,
    side_index,
)
from repro.core.kernels import Adjacency, adjacency_size, compose_adjacency
from repro.errors import EvaluationError
from repro.planner.plan import Chord, Chordification, Triangle, TriangleSide
from repro.utils.deadline import Deadline


def _opposite_sides(
    triangle: Triangle, u: int, v: int
) -> tuple[TriangleSide, TriangleSide, int]:
    """The triangle's sides opposite the (u, v) chord — the one on
    ``u``, the one on ``v`` — and its third variable."""
    z = next(var for var in triangle.vars if var not in (u, v))
    sides = [s for s in triangle.sides if {s.a, s.b} != {u, v}]
    if len(sides) != 2:
        raise EvaluationError(f"triangle {triangle} lacks sides opposite ({u},{v})")
    side_u = sides[0] if u in (sides[0].a, sides[0].b) else sides[1]
    side_v = sides[1] if side_u is sides[0] else sides[0]
    return side_u, side_v, z


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
    side_u, side_v, z = _opposite_sides(triangle, u, v)
    from_u = side_index(ag, side_u, u, deadline)  # u -> {z}
    from_z = side_index(ag, side_v, z, deadline)  # z -> {v}
    return compose_adjacency(from_u, from_z, deadline)


def _ready_triangles(
    ag: AnswerGraph, chordification: Chordification, chord: Chord
) -> list[Triangle]:
    """The chord's triangles whose other two sides are materialized."""
    ready = []
    for triangle in chordification.triangles:
        others = [
            s
            for s in triangle.sides
            if not (s.ref.kind == "chord" and s.ref.index == chord.index)
        ]
        if len(others) == 2 and all(ag.is_materialized(rel_of(s)) for s in others):
            ready.append(triangle)
    return ready


def _side_pairs(ag: AnswerGraph, triangle: Triangle, chord: Chord) -> int:
    side_u, side_v, _ = _opposite_sides(triangle, chord.u, chord.v)
    return ag.relation_size(rel_of(side_u)) + ag.relation_size(rel_of(side_v))


def _witnessed(
    adj: Adjacency, from_u: Adjacency, to_v: Adjacency, deadline: Deadline
) -> Adjacency:
    """The pairs ``(x, y)`` of ``adj`` that some node is next to on both
    sides — in ``from_u[x]`` and in ``to_v[y]`` — one C-level
    ``isdisjoint`` per pair, no composition built."""
    out: Adjacency = {}
    for x, ys in adj.items():
        mids = from_u.get(x)
        if mids:
            deadline.check_every(len(ys))
            kept = {y for y in ys if (zs := to_v.get(y)) and not mids.isdisjoint(zs)}
            if kept:
                out[x] = kept
    return out


def _join_chord(
    ag: AnswerGraph, triangles: list[Triangle], chord: Chord, deadline: Deadline
) -> Adjacency:
    """The chord's pairs: the joins of the opposite sides of each of
    ``triangles``, intersected — by composing the triangle whose sides
    hold the fewest pairs and keeping what every other one witnesses
    (see the module docstring)."""
    u, v = chord.u, chord.v
    first = min(triangles, key=lambda t: _side_pairs(ag, t, chord))
    adj = join_triangle_adjacency(ag, first, u, v, deadline)
    for triangle in triangles:
        if triangle is not first:
            side_u, side_v, _ = _opposite_sides(triangle, u, v)
            from_u = side_index(ag, side_u, u, deadline)  # u -> {z}
            to_v = side_index(ag, side_v, v, deadline)  # v -> {z}
            adj = _witnessed(adj, from_u, to_v, deadline)
    return adj


def materialize_chords(
    ag: AnswerGraph,
    chordification: Chordification,
    deadline: Deadline,
) -> int:
    """Materialize every chord in plan order; returns total chord pairs.

    Each chord's relation is the intersection of the joins of all its
    triangles whose other two sides are already materialized
    (:func:`_join_chord`). The chord's endpoints then constrain the AG
    node sets, cascading through node burnback.
    """
    total = 0
    for chord_index in chordification.order:
        if ag.empty:
            break
        chord = chordification.chords[chord_index]
        rel: RelKey = ("c", chord.index)
        triangles = _ready_triangles(ag, chordification, chord)
        if not triangles:
            raise EvaluationError(
                f"chord {chord.index} has no triangle with materialized sides; "
                "chord order is invalid"
            )
        adj = _join_chord(ag, triangles, chord, deadline)
        ag.register_relation(rel, chord.u, chord.v, forward=adj)
        total += adjacency_size(adj)
        removals = constrain_endpoints(ag, rel)
        if removals:
            node_burnback(ag, removals, deadline)
    return total


def drop_chords(ag: AnswerGraph, chordification: Chordification) -> None:
    """Remove chord relations, once phase 2 has joined through them:
    |AG|, snapshots and the returned AG hold real query edges only."""
    for chord in chordification.chords:
        ag.drop_relation(("c", chord.index))
