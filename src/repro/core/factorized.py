"""Aggregation directly on the factorized answer graph.

The answer graph *is* a factorized representation of the answer set
(§2: "the factorization of the embedding tuples is fully down to
component node pairs"). A key benefit of factorized representations —
the reason the paper cites FDB [3] — is that many aggregates can be
computed **without defactorizing**: on an acyclic CQ with an ideal AG,
the embedding count, per-variable marginals, and even uniform samples
are all computable in time linear in |AG| instead of |embeddings|.

Both aggregates here read the skeleton forest that phase 2 counts on
(:mod:`repro.core.defactorize`; the count alone is
:func:`~repro.core.defactorize.count_embeddings`, which handles cyclic
queries too), built with every variable in the skeleton and no pools:

* :func:`variable_marginals` — for every variable ``v`` and node ``n``,
  how many embeddings bind ``v = n`` (the "histogram" of each output
  column): the forest's root weights with ``v``'s tree rooted at ``v``,
  times the other trees' totals. The forest weighs each direction of a
  join once, so all marginals together cost O(|AG|);
* :func:`sample_embedding` — one embedding drawn *uniformly at random*
  from the answer set without enumerating it: each tree's root node by
  its root weight, then each child, parents first, by its weight below
  the parent over the parent node's bucket.

Both require the query graph to be **acyclic** (a forest over the
variables — the regime where node burnback guarantees the AG is ideal,
§3) and the AG to be ideal; they raise :class:`QueryError` for cyclic
queries, where the AG may contain spurious edges that would inflate the
counts. Trees linked only through constants are independent, so counts
multiply across them.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, repeat
from math import prod
from typing import Iterable, Sequence

import numpy as np

from repro.core.answer_graph import AnswerGraph
from repro.core.defactorize import _NONE, _Forest, _index, _skeleton_forest
from repro.errors import QueryError
from repro.query.shapes import is_acyclic
from repro.utils.deadline import Deadline
from repro.utils.rng import make_rng


def _check_supported(ag: AnswerGraph) -> None:
    if not is_acyclic(ag.bound.query):
        raise QueryError(
            "factorized aggregation requires an acyclic query (cyclic AGs "
            "may be non-ideal; defactorize instead)"
        )


def _forest(ag: AnswerGraph) -> _Forest:
    """Every variable of an acyclic query as a skeleton variable."""
    forest = _skeleton_forest(ag, range(ag.bound.num_vars), {}, {}, Deadline.unlimited())
    assert forest is not None  # an acyclic query closes no cycle
    return forest


def _rooted(forest: _Forest, var: int) -> dict[int, int]:
    """The rows of ``var``'s tree per node of ``var``, zeros left out."""
    domain, weights = forest.rooted(var)
    if weights is None:
        return dict.fromkeys(domain, 1)
    return {node: weight for node, weight in zip(domain, weights) if weight}


def variable_marginals(ag: AnswerGraph) -> dict[int, dict[int, int]]:
    """For each variable, the embedding count per bound node.

    ``marginals[v][n]`` = number of embeddings with ``v = n``; summing
    any variable's marginal recovers the total count.
    """
    _check_supported(ag)
    marginals: dict[int, dict[int, int]] = {v: {} for v in range(ag.bound.num_vars)}
    if ag.empty:
        return marginals
    forest = _forest(ag)
    trees = [{var: _rooted(forest, var) for var in members} for members in forest.trees()]
    totals = [sum(next(iter(tree.values())).values()) for tree in trees]
    for i, tree in enumerate(trees):
        outside = prod(totals[:i]) * prod(totals[i + 1:])
        if outside:
            for var, table in tree.items():
                marginals[var] = {node: count * outside for node, count in table.items()}
    return marginals


def _pick(
    generator: np.random.Generator, nodes: Sequence[int], weights: Iterable[int] | None
) -> int | None:
    """One of ``nodes`` drawn in proportion to ``weights`` (``None``:
    uniformly); ``None`` when they weigh nothing."""
    if weights is None:
        return nodes[int(generator.integers(len(nodes)))] if nodes else None
    bounds = list(accumulate(weights))
    if not bounds or not bounds[-1]:
        return None
    return nodes[bisect_right(bounds, int(generator.integers(bounds[-1])))]


def sample_embedding(
    ag: AnswerGraph, rng: int | np.random.Generator | None = 0
) -> tuple[int, ...] | None:
    """One uniform sample from the answer set, without enumeration.

    Returns ``None`` when the query has no embeddings. Sampling is
    top-down: each tree's root value is drawn proportionally to its
    tree's rows, then each child proportionally to the rows below it —
    exactly uniform over the full answer set.
    """
    _check_supported(ag)
    generator = make_rng(rng)
    if ag.empty:
        return None
    forest = _forest(ag)
    assignment: list[int] = [-1] * ag.bound.num_vars
    for root, *_ in forest.trees():
        domain, weights = forest.rooted(root)
        node = _pick(generator, list(domain), weights)
        if node is None:
            return None
        assignment[root] = node
        for parent, child, rel, pos in forest.descents(root):
            # The parent's node weighs more than 0, so some child node does.
            adj = _index(ag, rel, pos, forest.deadline)
            bucket = list(adj.get(assignment[parent], _NONE))
            below = forest.weights(child, parent)
            weights = None if below is None else map(below.get, bucket, repeat(0))
            assignment[child] = _pick(generator, bucket, weights)
    return tuple(assignment)
