"""Cost-based planners (substrates #4–5 in DESIGN.md).

* :mod:`repro.planner.edgifier` — the Edgifier: bottom-up dynamic
  programming over connected query-edge subsets, bounded by its own
  greedy plan (:func:`greedy_plan`, also the baselines' join order),
  producing the left-deep edge order for answer-graph generation.
* :mod:`repro.planner.triangulator` — the Triangulator: chordification
  of cycles longer than three via polygon-triangulation DP.
* :mod:`repro.planner.embedding_planner` — the greedy join order for
  defactorization (phase 2); it fixes the skeleton variable order only.
"""

from repro.planner.plan import (
    AGPlan,
    Chord,
    Chordification,
    EmbeddingPlan,
    SideRef,
    Triangle,
    TriangleSide,
)
from repro.planner.cost import cost_of_order
from repro.planner.edgifier import Edgifier, greedy_plan
from repro.planner.triangulator import Triangulator
from repro.planner.embedding_planner import greedy_embedding_plan

__all__ = [
    "AGPlan",
    "Chord",
    "Chordification",
    "EmbeddingPlan",
    "SideRef",
    "Triangle",
    "TriangleSide",
    "cost_of_order",
    "Edgifier",
    "greedy_plan",
    "Triangulator",
    "greedy_embedding_plan",
]
