"""Edge-walk plan costing.

The unit of cost is the *edge walk* — one matching edge retrieved from
the data graph (§4.I). Node burnback is amortized into the walks that
created the removed edges, so a plan's cost is simply the sum of the
estimated walks of its extension steps.

:func:`cost_of_order` prices an arbitrary (not necessarily optimal)
order with the same estimator the Edgifier uses; the planner ablation
benchmarks rely on it to compare DP plans against random and adversarial
orders.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import PlanError
from repro.query.algebra import BoundQuery
from repro.stats.estimator import CardinalityEstimator


def cost_of_order(
    bound: BoundQuery,
    estimator: CardinalityEstimator,
    order: Sequence[int],
) -> tuple[float, tuple[float, ...]]:
    """Estimated (total, per-step) edge walks of evaluating ``order``.

    Raises :class:`PlanError` if ``order`` is not a permutation of the
    query's edges.
    """
    if sorted(order) != list(range(len(bound.edges))):
        raise PlanError(
            f"order {list(order)!r} is not a permutation of "
            f"0..{len(bound.edges) - 1}"
        )
    state = estimator.initial_state()
    # The total is accumulated left to right, as the planners do: from
    # Python 3.12 on, builtin sum() compensates and can differ in the
    # last bit.
    total = 0.0
    steps = []
    for eid in order:
        walks, state = estimator.estimate_extension(state, bound.edges[eid])
        steps.append(walks)
        total += walks
    return total, tuple(steps)
