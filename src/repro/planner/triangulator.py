"""The Triangulator: chordification of cyclic queries.

"For cyclic CQs ... cycles in the query graph of length greater than
three are triangulated by adding chord edges. We employ a bottom-up
dynamic programming algorithm to generate a bushy plan that dictates
the order and choice of chord bisection of cycles (down to triangles)."
— §4.I

Each fundamental cycle of the query graph becomes a polygon whose
vertices are the cycle's variables in ring order. Triangulating a
k-gon requires k−3 chords; which chords to pick is the classic
minimum-weight polygon-triangulation DP, where the weight of a chord is
the estimated size of its materialization (a chord is maintained as the
intersection of the joins of the two opposite sides of each triangle it
participates in, so its cost is the size of that join).

Chord sizes are estimated from the catalog: a two-edge segment uses the
*exact* offline 2-gram join cardinality; longer segments compose
estimates with the classical ``|R ⋈ S| ≈ |R|·|S| / max(d_R, d_S)``
formula over distinct join-key counts.

Cycles of length 3 need no chords but still contribute a
:class:`~repro.planner.plan.Triangle` so that edge burnback can enforce
triple consistency on them.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import PlanError
from repro.query.algebra import BoundQuery
from repro.query.model import Var
from repro.query.shapes import cycle_vertex_ring, find_cycles
from repro.planner.plan import Chord, Chordification, SideRef, Triangle, TriangleSide
from repro.stats.estimator import CardinalityEstimator


class _SegEst(NamedTuple):
    """Catalog estimate for the relation spanning ring positions i..j."""

    size: float
    d_left: float  # estimated distinct values at the left ring var
    d_right: float


class Triangulator:
    """Chordification planner for cyclic conjunctive queries."""

    def __init__(self, estimator: CardinalityEstimator):
        self.estimator = estimator

    def plan(self, bound: BoundQuery) -> Chordification:
        """Chordify every fundamental cycle of ``bound``'s query graph.

        Returns a trivial chordification for acyclic queries. Cycles in
        the fundamental basis are chordified independently; chords on
        the same variable pair are shared (their triangles merge).
        """
        query = bound.query
        cycles = find_cycles(query)
        if not cycles:
            return Chordification((), (), (), 0.0)

        var_index = {v: i for i, v in enumerate(query.variables)}
        chords: list[Chord] = []
        chord_by_pair: dict[tuple[int, int], int] = {}
        triangles: list[Triangle] = []
        order: list[int] = []
        total_cost = 0.0

        for cycle_edges in cycles:
            if len(cycle_edges) < 3:
                # Length-1 (self-loop) and length-2 (parallel edges)
                # cycles have no interior to chordify; edge burnback
                # handles them via direct pair intersection, which the
                # evaluator performs without triangle bookkeeping.
                continue
            ring_vars = cycle_vertex_ring(query, cycle_edges)
            ring = [var_index[v] for v in ring_vars]
            ring_edge_ids = _ring_edge_ids(bound, query, cycle_edges, ring_vars)
            cost = self._triangulate_ring(
                bound,
                ring,
                ring_edge_ids,
                chords,
                chord_by_pair,
                triangles,
                order,
            )
            total_cost += cost

        return Chordification(
            chords=tuple(chords),
            triangles=tuple(triangles),
            order=tuple(order),
            estimated_cost=total_cost,
        )

    # ------------------------------------------------------------------

    def _triangulate_ring(
        self,
        bound: BoundQuery,
        ring: list[int],
        ring_edge_ids: list[int],
        chords: list[Chord],
        chord_by_pair: dict[tuple[int, int], int],
        triangles: list[Triangle],
        order: list[int],
    ) -> float:
        """Run the polygon DP for one cycle; append its chords/triangles."""
        n = len(ring)
        seg = self._segment_estimates(bound, ring, ring_edge_ids)

        if n == 3:
            sides = tuple(
                self._edge_side(bound, ring_edge_ids[i]) for i in range(3)
            )
            triangles.append(Triangle(vars=tuple(ring), sides=sides))
            return 0.0

        # DP over ring positions: tc[(i, j)] = (cost, split k) of fully
        # triangulating the sub-polygon i..j, *including* the cost of
        # materializing chord (i, j) itself when (i, j) is not a ring
        # edge. Sub-polygons by growing span, so each one's parts are
        # there before it. (Loops, not self-recursive closures: those
        # would tie the plan into a reference cycle through their own
        # cells, and it should die by reference count.)
        tc: dict[tuple[int, int], tuple[float, int | None]] = {
            (i, i + 1): (0.0, None) for i in range(n - 1)
        }
        for span in range(2, n):
            for i in range(n - span):
                j = i + span
                best_cost, best_k = float("inf"), None
                for k in range(i + 1, j):
                    cost = tc[(i, k)][0] + tc[(k, j)][0]
                    if cost < best_cost:
                        best_cost, best_k = cost, k
                own_cost = 0.0 if _is_ring_edge(i, j, n) else seg[(i, j)].size
                tc[(i, j)] = (best_cost + own_cost, best_k)

        def side_for(i: int, j: int) -> TriangleSide:
            if j - i == 1:
                return self._edge_side(bound, ring_edge_ids[i])
            if (i, j) == (0, n - 1):
                return self._edge_side(bound, ring_edge_ids[n - 1])
            pair = (ring[i], ring[j])
            key = (min(pair), max(pair))
            chord_idx = chord_by_pair.get(key)
            if chord_idx is None:
                chord_idx = len(chords)
                chords.append(
                    Chord(
                        index=chord_idx,
                        u=ring[i],
                        v=ring[j],
                        estimated_size=seg[(i, j)].size,
                    )
                )
                chord_by_pair[key] = chord_idx
            chord = chords[chord_idx]
            return TriangleSide(SideRef("chord", chord_idx), chord.u, chord.v)

        # Post-order reconstruction from the outer boundary (0, n-1),
        # the cycle's closing ring edge: children before the triangle
        # that joins them, so chord materialization order is valid.
        stack: list[tuple[int, int, bool]] = [(0, n - 1, False)]
        while stack:
            i, j, parts_done = stack.pop()
            if j - i == 1:
                continue
            k = tc[(i, j)][1]
            assert k is not None
            if not parts_done:
                stack += [(i, j, True), (k, j, False), (i, k, False)]
                continue
            tri = Triangle(
                vars=(ring[i], ring[k], ring[j]),
                sides=(side_for(i, k), side_for(k, j), side_for(i, j)),
            )
            triangles.append(tri)
            if not _is_ring_edge(i, j, n):
                chord_side = side_for(i, j)
                if chord_side.ref.kind == "chord":
                    if chord_side.ref.index not in order:
                        order.append(chord_side.ref.index)
        return tc[(0, n - 1)][0]

    def _edge_side(self, bound: BoundQuery, eid: int) -> TriangleSide:
        edge = bound.edges[eid]
        if edge.s_var is None or edge.o_var is None:
            raise PlanError(
                f"cycle edge {eid} has a constant endpoint; cyclic queries "
                "with constants on cycle edges are not supported"
            )
        return TriangleSide(SideRef("edge", eid), edge.s_var, edge.o_var)

    # ------------------------------------------------------------------

    def _segment_estimates(
        self, bound: BoundQuery, ring: list[int], ring_edge_ids: list[int]
    ) -> dict[tuple[int, int], _SegEst]:
        """Catalog size estimates for every ring segment (i, j), i<j.

        ``seg[(i, j)]`` spans ring edges ``i..j-1``. Two-edge segments
        use the exact 2-gram join cardinality; longer ones compose.
        """
        n = len(ring)
        catalog = self.estimator.catalog
        base: dict[tuple[int, int], _SegEst] = {}
        side_at: dict[int, tuple[str, str]] = {}  # ring edge -> (left, right) pos
        for i in range(n):
            eid = ring_edge_ids[i]
            edge = bound.edges[eid]
            left_var = ring[i]
            stats = catalog.unigram(edge.p)
            if edge.s_var == left_var:
                base[(i, (i + 1) % n)] = _SegEst(
                    float(stats.count),
                    float(stats.distinct_subjects),
                    float(stats.distinct_objects),
                )
                side_at[i] = ("s", "o")
            else:
                base[(i, (i + 1) % n)] = _SegEst(
                    float(stats.count),
                    float(stats.distinct_objects),
                    float(stats.distinct_subjects),
                )
                side_at[i] = ("o", "s")

        seg: dict[tuple[int, int], _SegEst] = {}
        for i in range(n - 1):
            seg[(i, i + 1)] = base[(i, i + 1)]

        def combine(a: _SegEst, b: _SegEst) -> _SegEst:
            denom = max(a.d_right, b.d_left, 1.0)
            size = a.size * b.size / denom
            return _SegEst(
                size,
                min(a.d_left, size) if size else 0.0,
                min(b.d_right, size) if size else 0.0,
            )

        for span in range(2, n):
            for i in range(0, n - span):
                j = i + span
                if span == 2:
                    k = i + 1
                    e1, e2 = ring_edge_ids[i], ring_edge_ids[k]
                    orient = side_at[i][1] + side_at[k][0]
                    pairs = catalog.bigram(
                        bound.edges[e1].p, bound.edges[e2].p, orient
                    ).join_pairs
                    a, b = seg[(i, k)], seg[(k, j)]
                    est = combine(a, b)
                    seg[(i, j)] = _SegEst(float(pairs), est.d_left, est.d_right)
                    continue
                best: _SegEst | None = None
                for k in range(i + 1, j):
                    candidate = combine(seg[(i, k)], seg[(k, j)])
                    if best is None or candidate.size < best.size:
                        best = candidate
                assert best is not None
                seg[(i, j)] = best
        return seg


def _is_ring_edge(i: int, j: int, n: int) -> bool:
    return j - i == 1 or (i == 0 and j == n - 1)


def _ring_edge_ids(
    bound: BoundQuery,
    query,
    cycle_edges: list[int],
    ring_vars: list[Var],
) -> list[int]:
    """Map ring position i to the query edge joining ring var i and i+1.

    With parallel edges inside one cycle this picks each cycle edge
    exactly once.
    """
    n = len(ring_vars)
    remaining = set(cycle_edges)
    out: list[int] = []
    for i in range(n):
        a, b = ring_vars[i], ring_vars[(i + 1) % n]
        chosen = None
        for eid in remaining:
            vars_ = query.edges[eid].variables()
            if len(vars_) == 2 and {vars_[0], vars_[1]} == {a, b}:
                chosen = eid
                break
        if chosen is None:
            raise PlanError(
                f"cycle ring {ring_vars!r} has no edge between {a} and {b}"
            )
        remaining.discard(chosen)
        out.append(chosen)
    return out
