"""Cardinality estimation for successive edge extensions.

The Edgifier costs a plan as the total number of *edge walks* — data
edges retrieved across all extension steps (§4.I: "The edge walk is our
unit for estimating a plan's cost ... node and edge cardinality
estimations are made for each successive edge extension"). This module
implements those estimations on top of the catalog.

The estimator is purely catalog-driven (offline statistics only), so
estimates for the same (plan prefix, next edge) pair are deterministic.

Estimation model
----------------
The state after a plan prefix tracks, per query variable ``v``:

* ``card(v)`` — estimated size of the answer-graph node set ``N[v]``,
* the set of (label, side) pairs that constrained ``v`` so far.

Extending with edge ``e = (u -L-> v)``:

* **u unbound, v unbound** (seed edge): walks = ``count(L)``;
  ``card(u) = distinct_subjects(L)``, ``card(v) = distinct_objects(L)``.
* **u bound, v unbound**: only nodes of ``N[u]`` that actually occur as
  ``L``-subjects extend. That fraction is estimated from 2-grams as the
  *minimum* over u's existing constraints ``(K, side)`` of::

      frac = join_nodes(K@side, L@subject) / distinct_nodes(K@side)

  (the most selective observed correlation; independence would
  multiply fractions and tends to underestimate badly on correlated
  graph data). Then ``walks = card(u)·frac·avg_out(L)`` and the new
  ``card(v)`` scales ``distinct_objects(L)`` by the fraction of
  ``L``-edges retrieved.
* **both bound** (a closing edge): the evaluator walks from the cheaper
  side and filters on the other, so
  ``walks = min(from-u estimate, from-v estimate)`` and survivors are
  discounted by the probability that the far endpoint lies in its
  current node set.

Node burnback is *not* charged (the paper amortizes it: every edge that
burnback removes was paid for when it was walked).

Two statements of one model
---------------------------
:meth:`CardinalityEstimator.estimate_extension` over an immutable
:class:`EstimatorState` is the readable statement of the model and the
public single-step API. A planner that prices hundreds of candidate
extensions per query cannot afford a frozen state built from two copied
dicts per candidate, so :meth:`CardinalityEstimator.compile` looks up
once per query everything the catalog can say about its edges
(:class:`QueryStatistics`) and prices an extension from those numbers
and one flat list of cardinalities. The compiled form performs the same
floating-point operations in the same order; ``estimate_extension`` is
the oracle it must match bit for bit
(``tests/properties/test_property_planners.py``).

What makes the flat form possible: the *constraints* of a variable are
the (label, side) pairs of the materialized edges that touch it, and the
correlation fraction is a ``min`` over them — so it depends on *which*
edges are materialized (a bitmask), never on their order. Only the
cardinalities are path-dependent, and they are one float per variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from repro.query.algebra import BoundEdge
from repro.stats.catalog import Catalog


@dataclass(frozen=True)
class EstimatorState:
    """Estimated per-variable node-set sizes after a plan prefix.

    Immutable; :meth:`CardinalityEstimator.estimate_extension` returns a
    new state. ``cards`` maps variable index to the estimated |N[v]|;
    ``constraints`` maps variable index to the (label id, side) pairs
    that have constrained it (side is ``"s"`` or ``"o"``).
    """

    cards: dict = field(default_factory=dict)
    constraints: dict = field(default_factory=dict)

    def card(self, var: int) -> float | None:
        return self.cards.get(var)


class CardinalityEstimator:
    """Catalog-backed estimator of edge-extension costs."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # ------------------------------------------------------------------
    # Public API used by the planners
    # ------------------------------------------------------------------

    def initial_state(self) -> EstimatorState:
        """The empty state before any edge has been materialized."""
        return EstimatorState()

    def estimate_extension(
        self, state: EstimatorState, edge: BoundEdge
    ) -> tuple[float, EstimatorState]:
        """Estimated (edge walks, post-extension state) for ``edge``."""
        stats = self.catalog.unigram(edge.p)
        if stats.count == 0:
            return 0.0, self._after(state, edge, 0.0, 0.0, 0.0)

        u_card = self._endpoint_card(state, edge.s_var, edge.s_const, "s", stats)
        v_card = self._endpoint_card(state, edge.o_var, edge.o_const, "o", stats)
        u_bound = edge.s_var is not None and edge.s_var in state.cards
        v_bound = edge.o_var is not None and edge.o_var in state.cards

        if not u_bound and not v_bound:
            walks = self._seed_walks(edge, stats)
            new_u = min(u_card, walks) if edge.s_const is None else 1.0
            new_v = min(v_card, walks) if edge.o_const is None else 1.0
            return walks, self._after(state, edge, walks, new_u, new_v)

        if u_bound and not v_bound:
            walks, new_u, new_v = self._directed_walks(
                state, edge, stats, from_subject=True
            )
            return walks, self._after(state, edge, walks, new_u, new_v)

        if v_bound and not u_bound:
            walks, new_v, new_u = self._directed_walks(
                state, edge, stats, from_subject=False
            )
            return walks, self._after(state, edge, walks, new_u, new_v)

        # Both endpoints bound: walk the cheaper direction, filter on the
        # far side.
        walks_u, su_u, sv_u = self._directed_walks(state, edge, stats, True)
        walks_v, sv_v, su_v = self._directed_walks(state, edge, stats, False)
        if walks_u <= walks_v:
            walks = walks_u
            far_frac = _clamp01(
                self._constrained_card(state, edge.o_var, "o", stats)
                / max(stats.distinct_objects, 1)
            )
            surviving = walks * far_frac
            new_u = min(su_u, surviving)
            new_v = min(state.cards.get(edge.o_var, sv_u), surviving)
        else:
            walks = walks_v
            far_frac = _clamp01(
                self._constrained_card(state, edge.s_var, "s", stats)
                / max(stats.distinct_subjects, 1)
            )
            surviving = walks * far_frac
            new_v = min(sv_v, surviving)
            new_u = min(state.cards.get(edge.s_var, su_v), surviving)
        return walks, self._after(state, edge, walks, new_u, new_v)

    def compile(self, edges: Sequence[BoundEdge]) -> "QueryStatistics":
        """The catalog's numbers for ``edges``, looked up once (see
        :class:`QueryStatistics`)."""
        return QueryStatistics(self.catalog, edges)

    def chord_join_pairs(self, p1: int | None, orient: str, p2: int | None) -> int:
        """Exact offline size of the two-edge join ``p1 ⋈_orient p2``.

        Used by the Triangulator to cost chord materializations.
        """
        return self.catalog.bigram(p1, p2, orient).join_pairs

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _seed_walks(self, edge: BoundEdge, stats) -> float:
        if edge.s_const is not None and edge.o_const is not None:
            return 1.0
        if edge.s_const is not None:
            return stats.avg_out
        if edge.o_const is not None:
            return stats.avg_in
        return float(stats.count)

    def _endpoint_card(self, state, var, const, side: str, stats) -> float:
        if const is not None:
            return 1.0
        if var is not None and var in state.cards:
            return state.cards[var]
        return float(stats.distinct_subjects if side == "s" else stats.distinct_objects)

    def _correlation_fraction(
        self, state: EstimatorState, var: int, new_label: int, new_side: str
    ) -> float:
        """min over existing constraints of the 2-gram overlap fraction."""
        constraints = state.constraints.get(var)
        if not constraints:
            return 1.0
        best = 1.0
        for known_label, known_side in constraints:
            bigram = self.catalog.bigram(
                known_label, new_label, known_side + new_side
            )
            known_stats = self.catalog.unigram(known_label)
            denom = (
                known_stats.distinct_subjects
                if known_side == "s"
                else known_stats.distinct_objects
            )
            if denom <= 0:
                return 0.0
            best = min(best, _clamp01(bigram.join_nodes / denom))
        return best

    def _constrained_card(self, state, var, side: str, stats) -> float:
        """card(var) already in state, or the label's distinct count."""
        if var is not None and var in state.cards:
            return state.cards[var]
        return float(stats.distinct_subjects if side == "s" else stats.distinct_objects)

    def _directed_walks(
        self, state: EstimatorState, edge: BoundEdge, stats, from_subject: bool
    ) -> tuple[float, float, float]:
        """(walks, surviving near-side card, far-side card) walking from
        the subject (``from_subject``) or the object side."""
        if from_subject:
            near_var, near_const = edge.s_var, edge.s_const
            near_side, far_side = "s", "o"
            fan = stats.avg_out
            near_distinct = max(stats.distinct_subjects, 1)
            far_distinct = float(stats.distinct_objects)
        else:
            near_var, near_const = edge.o_var, edge.o_const
            near_side, far_side = "o", "s"
            fan = stats.avg_in
            near_distinct = max(stats.distinct_objects, 1)
            far_distinct = float(stats.distinct_subjects)

        if near_const is not None:
            near_card = 1.0
            frac = 1.0 / near_distinct  # a specific constant node
            matched = 1.0
            walks = fan  # expected fan from one node
        else:
            near_card = self._constrained_card(
                state, near_var, near_side, stats
            )
            frac = (
                self._correlation_fraction(state, near_var, edge.p, near_side)
                if near_var is not None
                else 1.0
            )
            matched = near_card * frac
            walks = matched * fan
        walks = min(walks, float(stats.count))
        far_card = min(
            far_distinct,
            walks * (far_distinct / max(stats.count, 1)) if stats.count else 0.0,
        )
        # At least one far node per matched near node's edge, at most all.
        far_card = max(far_card, min(1.0, walks)) if walks else 0.0
        return walks, matched, far_card

    def _after(
        self,
        state: EstimatorState,
        edge: BoundEdge,
        walks: float,
        new_u: float,
        new_v: float,
    ) -> EstimatorState:
        cards = dict(state.cards)
        constraints = {k: v for k, v in state.constraints.items()}
        if edge.s_var is not None:
            cards[edge.s_var] = max(new_u, 0.0)
            constraints[edge.s_var] = constraints.get(edge.s_var, ()) + (
                (edge.p, "s"),
            )
        if edge.o_var is not None:
            cards[edge.o_var] = max(new_v, 0.0)
            constraints[edge.o_var] = constraints.get(edge.o_var, ()) + (
                (edge.p, "o"),
            )
        return EstimatorState(cards=cards, constraints=constraints)


def _clamp01(x: float) -> float:
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return x


_NO_WALKS = (0.0, 0.0, 0.0)


class _Direction(NamedTuple):
    """One edge walked from one of its endpoints, in compiled numbers."""

    #: (bit of another edge on the near variable, clamped 2-gram overlap
    #: of that edge's label with this one's), one per constraint.
    links: tuple
    fan: float  # avg_out walking from the subject, avg_in from the object
    far_distinct: float
    far_per_edge: float  # far_distinct / count
    far_divisor: int  # max(far distinct count, 1)


class _CompiledEdge(NamedTuple):
    s_var: int | None
    o_var: int | None
    count: float
    seed: tuple[float, float, float]  # what extend() returns with neither end bound
    from_subject: _Direction
    from_object: _Direction


class QueryStatistics:
    """Everything the catalog says about one query's edges, looked up once.

    Edges are addressed by index and sets of edges by bitmask (bit ``i``
    is edge ``i``). A plan prefix is ``mask`` — the edges materialized —
    plus ``cards``, one dict from each bound variable to its estimated
    ``|N[v]|``, in the order the variables were first bound (which is
    ``EstimatorState.cards``' order: summing the values in it gives the
    same float). :meth:`extend` prices the next edge from the two and
    :meth:`bind` records it.

    Compiled per edge: the unpacked unigram numbers, the seed step (a
    function of the edge alone) and, per endpoint variable, one
    ``(bit of another edge on that variable, clamped 2-gram fraction)``
    pair for every constraint that edge would contribute, so the
    correlation fraction is a ``min`` over the pairs whose bit is in
    ``mask``. Compiled per query: which edges share a join token
    (``adjacent``), for connected-prefix enumeration.
    """

    __slots__ = ("num_edges", "edge_vars", "adjacent", "_edges")

    def __init__(self, catalog: Catalog, edges: Sequence[BoundEdge]):
        self.num_edges = len(edges)
        #: (subject variable, object variable) per edge; ``None`` for a
        #: constant or unknown term.
        self.edge_vars = [(e.s_var, e.o_var) for e in edges]

        # Term tokens, not bare variables: edges may join through a
        # shared constant as well.
        tokens = [e.term_tokens() for e in edges]
        sharing: dict = {}
        for eid, edge_tokens in enumerate(tokens):
            for token in edge_tokens:
                sharing[token] = sharing.get(token, 0) | 1 << eid
        #: adjacent[i]: the edges sharing a join token with edge ``i``.
        self.adjacent = []
        for eid, edge_tokens in enumerate(tokens):
            shared = 0
            for token in edge_tokens:
                shared |= sharing[token]
            self.adjacent.append(shared & ~(1 << eid))

        # touching[v]: (bit, label, side, distinct nodes of label@side)
        # of every edge endpoint that is variable ``v`` — the constraint
        # that edge puts on ``v`` once materialized.
        unigrams = [catalog.unigram(e.p) for e in edges]
        touching: dict[int, list] = {}
        for eid, (edge, stats) in enumerate(zip(edges, unigrams)):
            for var, side, distinct in (
                (edge.s_var, "s", stats.distinct_subjects),
                (edge.o_var, "o", stats.distinct_objects),
            ):
                if var is not None:
                    touching.setdefault(var, []).append((1 << eid, edge.p, side, distinct))

        def links(eid: int, var: int | None, label: int, side: str) -> tuple:
            return tuple(
                (bit, _overlap(catalog, known, known_side, denom, label, side))
                for bit, known, known_side, denom in touching.get(var, ())
                if bit != 1 << eid
            )

        self._edges: list[_CompiledEdge | None] = []
        for eid, (edge, stats) in enumerate(zip(edges, unigrams)):
            if stats.count == 0:
                self._edges.append(None)
                continue
            count = float(stats.count)
            subjects = float(stats.distinct_subjects)
            objects = float(stats.distinct_objects)
            if edge.s_const is not None and edge.o_const is not None:
                seed = 1.0
            elif edge.s_const is not None:
                seed = stats.avg_out
            elif edge.o_const is not None:
                seed = stats.avg_in
            else:
                seed = count
            self._edges.append(
                _CompiledEdge(
                    edge.s_var,
                    edge.o_var,
                    count,
                    (
                        seed,
                        min(subjects, seed) if edge.s_const is None else 1.0,
                        min(objects, seed) if edge.o_const is None else 1.0,
                    ),
                    _Direction(
                        links(eid, edge.s_var, edge.p, "s"),
                        stats.avg_out,
                        objects,
                        objects / stats.count,
                        max(stats.distinct_objects, 1),
                    ),
                    _Direction(
                        links(eid, edge.o_var, edge.p, "o"),
                        stats.avg_in,
                        subjects,
                        subjects / stats.count,
                        max(stats.distinct_subjects, 1),
                    ),
                )
            )

    def connectable(self, mask: int, reach: int) -> int:
        """The edges that may extend prefix ``mask`` and keep it connected.

        ``reach`` is the union of ``adjacent[i]`` over ``mask`` (callers
        maintain it as they grow a prefix).
        """
        if mask:
            return reach & ~mask
        return ((1 << self.num_edges) - 1) & ~mask  # no token bound yet: any edge

    def extend(self, cards: dict, mask: int, eid: int) -> tuple[float, float, float]:
        """(edge walks, new card of the subject variable, of the object
        variable) for extending the prefix ``(mask, cards)`` with edge
        ``eid`` — :meth:`CardinalityEstimator.estimate_extension` on
        compiled numbers. Estimates are never negative, so the oracle's
        ``max(·, 0.0)`` on the way into the state is the identity and is
        not repeated here."""
        record = self._edges[eid]
        if record is None:
            return _NO_WALKS
        s_var, o_var, count, seed, from_subject, from_object = record
        u = cards.get(s_var)
        v = cards.get(o_var)
        if u is None:
            if v is None:
                return seed
            walks, matched, far = _directed_walks(v, mask, count, from_object)
            return walks, far, matched
        if v is None:
            return _directed_walks(u, mask, count, from_subject)
        # Both endpoints bound: walk the cheaper direction, filter on the
        # far side.
        walks_u, matched_u, _ = _directed_walks(u, mask, count, from_subject)
        walks_v, matched_v, _ = _directed_walks(v, mask, count, from_object)
        if walks_u <= walks_v:
            surviving = walks_u * _clamp01(v / from_subject.far_divisor)
            return walks_u, min(matched_u, surviving), min(v, surviving)
        surviving = walks_v * _clamp01(u / from_object.far_divisor)
        return walks_v, min(u, surviving), min(matched_v, surviving)

    def bind(self, cards: dict, eid: int, new_u: float, new_v: float) -> None:
        """Record in ``cards`` the cardinalities :meth:`extend` returned."""
        s_var, o_var = self.edge_vars[eid]
        if s_var is not None:
            cards[s_var] = new_u
        if o_var is not None:
            cards[o_var] = new_v


def _overlap(
    catalog: Catalog, known: int | None, known_side: str, denom: int, label: int, side: str
) -> float:
    """Share of ``known@known_side``'s nodes that also occur at
    ``label@side``: one term of the correlation fraction."""
    if denom <= 0:
        return 0.0
    return _clamp01(catalog.bigram(known, label, known_side + side).join_nodes / denom)


def _directed_walks(
    near: float, mask: int, count: float, side: _Direction
) -> tuple[float, float, float]:
    """(walks, surviving near-side card, far-side card) walking from a
    bound variable of cardinality ``near``."""
    links, fan, far_distinct, far_per_edge, _ = side
    frac = 1.0  # min over the materialized constraints of the 2-gram overlap
    for bit, overlap in links:
        if mask & bit and overlap < frac:
            frac = overlap
    matched = near * frac
    walks = matched * fan
    if count < walks:
        walks = count
    if not walks:
        return walks, matched, 0.0
    far = walks * far_per_edge
    if far_distinct < far:
        far = far_distinct
    # At least one far node per matched near node's edge, at most all.
    floor = walks if walks < 1.0 else 1.0
    if floor > far:
        far = floor
    return walks, matched, far
