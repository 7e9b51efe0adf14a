"""Aggregation directly on the factorized answer graph.

The answer graph *is* a factorized representation of the answer set
(§2: "the factorization of the embedding tuples is fully down to
component node pairs"). A key benefit of factorized representations —
the reason the paper cites FDB [3] — is that many aggregates can be
computed **without defactorizing**: on an acyclic CQ with an ideal AG,
the embedding count, per-variable marginals, and even uniform samples
are all computable in time linear in |AG| instead of |embeddings|.

This module implements exact message passing over the query tree
(the count alone is :func:`repro.core.defactorize.count_embeddings`,
which handles cyclic queries too):

* :func:`variable_marginals` — for every variable ``v`` and node ``n``,
  how many embeddings bind ``v = n`` (the "histogram" of each output
  column), in O(|AG|);
* :func:`sample_embedding` — one embedding drawn *uniformly at random*
  from the answer set without enumerating it.

Both require the query graph to be **acyclic** (a forest over the
variables — the regime where node burnback guarantees the AG is ideal,
§3) and the AG to be ideal; they raise :class:`QueryError` for cyclic
queries, where the AG may contain spurious edges that would inflate the
counts. Components linked only through constants are independent, so
counts multiply across them.
"""

from __future__ import annotations

import numpy as np

from repro.core.answer_graph import AnswerGraph
from repro.errors import EvaluationError, QueryError
from repro.query.shapes import is_acyclic
from repro.utils.rng import make_rng


class _TreeEdge:
    """One query edge viewed from a parent variable toward a child."""

    __slots__ = ("eid", "child", "adjacency")

    def __init__(self, eid: int, child: int, adjacency: dict[int, set[int]]):
        self.eid = eid
        self.child = child
        self.adjacency = adjacency  # parent node -> {child nodes}


def _check_supported(ag: AnswerGraph) -> None:
    query = ag.bound.query
    if not is_acyclic(query):
        raise QueryError(
            "factorized aggregation requires an acyclic query (cyclic AGs "
            "may be non-ideal; defactorize instead)"
        )


def _var_forest(ag: AnswerGraph) -> tuple[list[int], dict[int, list[_TreeEdge]]]:
    """Root every variable component; returns (roots, children map).

    Edges with a constant endpoint act as per-node filters and are
    already reflected in the AG pair sets, but a var–const edge still
    contributes its *pair multiplicity* (always 1 per surviving node,
    since the constant is a single value) — so only var–var edges carry
    DP structure.
    """
    bound = ag.bound
    adjacency: dict[int, list[tuple[int, int]]] = {}  # var -> [(eid, other)]
    for eid, edge in enumerate(bound.edges):
        if edge.s_var is not None and edge.o_var is not None:
            adjacency.setdefault(edge.s_var, []).append((eid, edge.o_var))
            adjacency.setdefault(edge.o_var, []).append((eid, edge.s_var))
        else:
            for var in (edge.s_var, edge.o_var):
                if var is not None:
                    adjacency.setdefault(var, [])

    roots: list[int] = []
    children: dict[int, list[_TreeEdge]] = {v: [] for v in adjacency}
    visited: set[int] = set()
    for start in range(bound.num_vars):
        if start in visited or start not in adjacency:
            continue
        roots.append(start)
        visited.add(start)
        stack = [start]
        while stack:
            var = stack.pop()
            for eid, other in adjacency[var]:
                if other in visited:
                    continue
                visited.add(other)
                pos = "s" if bound.edges[eid].s_var == var else "o"
                children[var].append(
                    _TreeEdge(eid, other, ag.index(("e", eid), pos))
                )
                stack.append(other)
    return roots, children


def _down_counts(
    ag: AnswerGraph, roots: list[int], children: dict[int, list[_TreeEdge]]
) -> dict[int, dict[int, int]]:
    """down[v][n] = embeddings of v's subtree with v bound to n."""
    down: dict[int, dict[int, int]] = {}

    def solve(var: int) -> None:
        for tree_edge in children[var]:
            solve(tree_edge.child)
        table: dict[int, int] = {}
        for node in ag.node_set(var):
            total = 1
            for tree_edge in children[var]:
                child_table = down[tree_edge.child]
                partners = tree_edge.adjacency.get(node)
                if not partners:
                    total = 0
                    break
                total *= sum(child_table.get(m, 0) for m in partners)
                if total == 0:
                    break
            table[node] = total
        down[var] = table

    for root in roots:
        solve(root)
    return down


def variable_marginals(ag: AnswerGraph) -> dict[int, dict[int, int]]:
    """For each variable, the embedding count per bound node.

    ``marginals[v][n]`` = number of embeddings with ``v = n``; summing
    any variable's marginal recovers the total count. Computed with the
    standard two-pass (down then up) message passing.
    """
    _check_supported(ag)
    if ag.empty:
        return {v: {} for v in range(ag.bound.num_vars)}
    roots, children = _var_forest(ag)
    down = _down_counts(ag, roots, children)

    component_totals = {root: sum(down[root].values()) for root in roots}
    grand_total = 1
    for total in component_totals.values():
        grand_total *= total

    marginals: dict[int, dict[int, int]] = {}
    up: dict[int, dict[int, int]] = {}

    def descend(var: int, root: int) -> None:
        own_up = up[var]
        for tree_edge in children[var]:
            child = tree_edge.child
            child_down = down[child]
            # up[child][m] = sum over parent nodes n adjacent to m of
            #   up[n] * down[n] / (child factor at n)  — computed
            # without division by re-multiplying the siblings.
            child_up: dict[int, int] = {}
            # Pre-compute, per parent node, the product of all OTHER
            # factors (siblings + up).
            other_factor: dict[int, int] = {}
            for node in down[var]:
                if down[var][node] == 0 and own_up.get(node, 0) == 0:
                    continue
                product = own_up.get(node, 0)
                if product == 0:
                    continue
                for sibling in children[var]:
                    if sibling is tree_edge:
                        continue
                    partners = sibling.adjacency.get(node)
                    if not partners:
                        product = 0
                        break
                    product *= sum(
                        down[sibling.child].get(m, 0) for m in partners
                    )
                    if product == 0:
                        break
                if product:
                    other_factor[node] = product
            for node, factor in other_factor.items():
                for m in tree_edge.adjacency.get(node, ()):
                    if m in child_down:
                        child_up[m] = child_up.get(m, 0) + factor
            up[child] = child_up
            descend(child, root)

    for root in roots:
        outside = grand_total // max(component_totals[root], 1)
        up[root] = {node: outside for node in down[root]}
        descend(root, root)

    for var in range(ag.bound.num_vars):
        table = {}
        for node, d in down.get(var, {}).items():
            value = d * up.get(var, {}).get(node, 0)
            if value:
                table[node] = value
        marginals[var] = table
    return marginals


def sample_embedding(
    ag: AnswerGraph, rng: int | np.random.Generator | None = 0
) -> tuple[int, ...] | None:
    """One uniform sample from the answer set, without enumeration.

    Returns ``None`` when the query has no embeddings. Sampling is
    top-down: the root value is drawn proportionally to its subtree
    count, then each child proportionally to its own — exactly uniform
    over the full answer set.
    """
    _check_supported(ag)
    generator = make_rng(rng)
    if ag.empty:
        return None
    roots, children = _var_forest(ag)
    down = _down_counts(ag, roots, children)
    assignment: list[int] = [-1] * ag.bound.num_vars

    def weighted_pick(options: list[tuple[int, int]]) -> int:
        total = sum(w for _, w in options)
        if total == 0:
            raise EvaluationError("sampling from an empty distribution")
        target = int(generator.integers(total))
        acc = 0
        for value, weight in options:
            acc += weight
            if target < acc:
                return value
        raise AssertionError("unreachable")  # pragma: no cover

    def descend(var: int, node: int) -> None:
        assignment[var] = node
        for tree_edge in children[var]:
            child_down = down[tree_edge.child]
            options = [
                (m, child_down.get(m, 0))
                for m in tree_edge.adjacency.get(node, ())
            ]
            child_node = weighted_pick([o for o in options if o[1] > 0])
            descend(tree_edge.child, child_node)

    for root in roots:
        options = [(n, w) for n, w in down[root].items() if w > 0]
        if not options:
            return None
        descend(root, weighted_pick(options))
    return tuple(assignment)
