"""The Edgifier: bottom-up DP plan enumeration for phase 1.

"A plan is a sequence of the CQ's query edges to be materialized. We
employ a bottom-up, dynamic-programming algorithm to construct the edge
order based on cost estimation (which relies upon the cardinality
estimations)." — §4.I

The DP runs over *connected* subsets of query edges (bitmask-encoded),
level by level in increasing size, exactly as the paper describes. For
each subset it keeps ONE entry: the cheapest left-deep order found to
reach it, with the per-variable cardinality estimates that order leaves
behind (ties go to the smaller total cardinality, then to the order
found first). The estimates are path-dependent — a dearer prefix can
leave a tighter state and a cheaper continuation — so, like any
Selinger-style optimizer, this is a heuristic over left-deep orders and
not their optimum. What it does guarantee is the greedy plan as a floor:

* **Incumbent.** The greedy plan (cheapest connectable edge at each
  step, :func:`greedy_plan`) is computed first. A candidate prefix
  already dearer than it is dropped — costs only grow along an order,
  so it could never finish cheaper — and if no order the DP completes
  is at most as dear, the greedy plan is the answer. Hence
  ``plan.estimated_cost <= greedy_plan(...).estimated_cost``, always.
  Dropped candidates still register their subset: the order in which
  subsets are discovered decides exact ties two levels up, and it must
  not depend on the bound.
* **Expansion budget.** The number of connected subsets is exponential
  in the worst case (a star of n edges has 2^n), so the DP counts the
  extensions it enumerates and returns the incumbent when
  :data:`EXPANSION_BUDGET` is spent. Counted, never timed: a plan is a
  pure function of ``(bound.edges, catalog)``.

Every number comes from the estimator's compiled per-query statistics
(:class:`~repro.stats.estimator.QueryStatistics`); a prefix's state is
one dict of floats, copied only when a candidate is kept, and entries
link to their parents instead of carrying their order.
:func:`~repro.planner.cost.cost_of_order` on the returned order
reproduces ``step_costs`` and ``estimated_cost`` exactly.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import PlanError
from repro.query.algebra import BoundQuery
from repro.planner.plan import AGPlan
from repro.stats.estimator import CardinalityEstimator, QueryStatistics

#: Extensions (connected subset, next edge) the DP may enumerate before
#: it settles for the greedy plan. A 9-edge snowflake has 396, a 20-edge
#: chain 400, a 100-edge chain 10.0k, a 12-edge star 24.6k; a 13-edge
#: star (53.2k) and anything wider fall back. Using nearly all of it
#: takes 15 ms on the development box (the 12-edge star of CQ_S#1's
#: predicates, yago-like scale 2.0, min of 5; the 16-edge star gives up
#: after 10 ms), against 0.3-0.65 ms for a paper query.
EXPANSION_BUDGET = 25_000


def greedy_plan(stats: QueryStatistics, pick: Callable = min) -> AGPlan:
    """The connected order that takes the cheapest next edge at each step
    (``pick=max``: the costliest — the ablation's adversarial order);
    the first such edge on a tie."""
    everything = (1 << stats.num_edges) - 1
    cards: dict = {}
    mask = reach = 0
    order: list[int] = []
    step_costs: list[float] = []
    total = 0.0
    while mask != everything:
        connectable = stats.connectable(mask, reach)
        if not connectable:
            raise PlanError("query graph is disconnected; cannot plan")
        (walks, new_u, new_v), eid = pick(
            ((stats.extend(cards, mask, eid), eid) for eid in _bits(connectable)),
            key=_walks_of,
        )
        stats.bind(cards, eid, new_u, new_v)
        mask |= 1 << eid
        reach |= stats.adjacent[eid]
        order.append(eid)
        step_costs.append(walks)
        total += walks
    return AGPlan(tuple(order), tuple(step_costs), total)


def _bits(mask: int):
    """Indexes of the set bits of ``mask``, ascending."""
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


def _walks_of(step: tuple) -> float:
    return step[0][0]


class Edgifier:
    """Cost-based left-deep plan construction."""

    def __init__(self, estimator: CardinalityEstimator):
        self.estimator = estimator

    def plan(self, bound: BoundQuery) -> AGPlan:
        """The DP's left-deep edge order for ``bound``, never dearer than
        the greedy one."""
        if not bound.edges:
            raise PlanError("cannot plan a query with no edges")
        stats = self.estimator.compile(bound.edges)
        return _bounded_dp(stats, greedy_plan(stats))


def _bounded_dp(stats: QueryStatistics, incumbent: AGPlan) -> AGPlan:
    extend = stats.extend
    adjacent = stats.adjacent
    ceiling = incumbent.estimated_cost
    budget = EXPANSION_BUDGET

    # reach[mask] (see QueryStatistics.connectable) doubles as the set of
    # discovered subsets. best[mask], for those some order reaches within
    # the ceiling, is (cost, cards, parent entry, last edge, its walks):
    # the order and step costs are read back through the parents.
    reach = {0: 0}
    best = {0: (0.0, {}, None, -1, 0.0)}
    level = [0]
    while level:
        next_level: list[int] = []
        for mask in level:
            near = reach[mask]
            connectable = stats.connectable(mask, near)
            budget -= connectable.bit_count()
            if budget < 0:
                return incumbent
            entry = best.get(mask)
            if entry is not None:
                cost, cards = entry[0], entry[1]
            for eid in _bits(connectable):
                new_mask = mask | 1 << eid
                if new_mask not in reach:
                    reach[new_mask] = near | adjacent[eid]
                    next_level.append(new_mask)
                if entry is None:
                    continue
                walks, new_u, new_v = extend(cards, mask, eid)
                total = cost + walks
                if total > ceiling:
                    continue
                rival = best.get(new_mask)
                if rival is not None and total > rival[0]:
                    continue
                new_cards = cards.copy()
                stats.bind(new_cards, eid, new_u, new_v)
                # An exact cost tie goes to the tighter state — the smaller
                # total cardinality, summed in first-binding order, which
                # is the dicts' order — and then to the order found first.
                if (
                    rival is None
                    or total < rival[0]
                    or sum(new_cards.values()) < sum(rival[1].values())
                ):
                    best[new_mask] = (total, new_cards, entry, eid, walks)
        level = next_level

    entry = best.get((1 << stats.num_edges) - 1)
    if entry is None:
        return incumbent
    estimated_cost = entry[0]
    order: list[int] = []
    step_costs: list[float] = []
    while entry[2] is not None:
        order.append(entry[3])
        step_costs.append(entry[4])
        entry = entry[2]
    return AGPlan(tuple(reversed(order)), tuple(reversed(step_costs)), estimated_cost)
