"""The paper's contribution: answer-graph (factorized) CQ evaluation.

* :mod:`repro.core.answer_graph` — the AG data structure.
* :mod:`repro.core.kernels` — set-at-a-time bulk primitives (edge
  extension, adjacency inversion and composition, bucket subtraction)
  backing all of phase 1.
* :mod:`repro.core.extension` — edge-extension steps (phase 1).
* :mod:`repro.core.burnback` — cascading node burnback and the optional
  edge burnback for cyclic queries.
* :mod:`repro.core.triangles` — chord materialization and triangle
  consistency.
* :mod:`repro.core.generation` — phase-1 orchestration (with tracing).
* :mod:`repro.core.reference` — the retained tuple-at-a-time phase-1
  implementation (equivalence oracle and benchmark baseline).
* :mod:`repro.core.defactorize` — phase 2, the one executor: embedding
  generation and counting along a connected edge order.
* :mod:`repro.core.ideal` — oracle reference implementations.
* :mod:`repro.core.engine` — the end-to-end Wireframe engine.
"""

from repro.core.answer_graph import AnswerGraph, RelKey
from repro.core.kernels import bulk_extend, compose_adjacency
from repro.core.generation import GenerationStats, GenerationTrace, generate_answer_graph
from repro.core.defactorize import count_embeddings, iter_embeddings, materialize_embeddings
from repro.core.factorized import (
    sample_embedding,
    variable_marginals,
)
from repro.core.ideal import (
    enumerate_embeddings_bruteforce,
    has_any_embedding,
    ideal_answer_graph,
)
from repro.core.engine import WireframeEngine, WireframeResult

__all__ = [
    "AnswerGraph",
    "RelKey",
    "bulk_extend",
    "compose_adjacency",
    "GenerationStats",
    "GenerationTrace",
    "generate_answer_graph",
    "iter_embeddings",
    "materialize_embeddings",
    "count_embeddings",
    "variable_marginals",
    "sample_embedding",
    "enumerate_embeddings_bruteforce",
    "has_any_embedding",
    "ideal_answer_graph",
    "WireframeEngine",
    "WireframeResult",
]
