"""Phase 2's depth-first enumerator, kept as the tests' order oracle.

:mod:`repro.core.defactorize` enumerates the skeleton one level at a
time for a block of roots, in C-level iterators. This module walks the
same compiled plan the obvious way: one skeleton assignment at a time,
depth first, each candidate's pools read and met as it is reached, one
``itertools.product`` per complete assignment. Its rows, in its order,
are what the library must produce.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Collection, Iterator, Sequence

from repro.core.answer_graph import AnswerGraph
from repro.core.defactorize import _NONE, Row, _compile, _shape, _unique
from repro.utils.deadline import Deadline


def _meet(sets: list[Collection[int]]) -> Collection[int]:
    """The intersection of ``sets``, smallest first (one set: itself)."""
    if len(sets) == 1:
        return sets[0]
    if len(sets) > 2:
        sets.sort(key=len)
    return sets[0].intersection(*sets[1:])


def _candidates(level, slots: list[int | None]) -> Collection[int | None]:
    if not level.joins:
        found = level.domain
    else:
        found = _meet([adj.get(slots[slot], _NONE) for adj, slot in level.joins])
    for adj in level.loops:
        found = [node for node in found if node in adj.get(node, _NONE)]
    return found


def _pinned(leaves, slots: list[int | None]):
    """A level's pools with their earlier anchors' buckets met once per
    descent: ``(column, adjacency, meet or None)``, ``None`` when a meet
    is empty."""
    out = []
    for column, adj, anchors in leaves:
        met = None
        if anchors:
            met = _meet([a.get(slots[slot], _NONE) for a, slot in anchors])
            if not met:
                return None
        out.append((column, adj, met))
    return out


def assignments(plan, width: int) -> Iterator[list[Collection[int]]]:
    """Enumerate the skeleton depth first; yield one pool per output
    column (the same list, refilled in place) per complete assignment."""
    levels, tail, slots = plan.levels, plan.tail, list(plan.slots)
    pools: list[Collection[int]] = [()] * width
    last = len(levels) - 1
    stack: list[Iterator[int | None]] = [iter(levels[0].domain)] + [iter(())] * last
    live = [[(column, adj, None) for column, adj, _ in level.leaves] for level in levels]
    anchored = [any(anchors for _, _, anchors in level.leaves) for level in levels]
    depth = 0
    while depth >= 0:
        shown, leaves = levels[depth].shown, live[depth]
        for node in stack[depth]:
            for column, adj, met in leaves:
                pool = adj.get(node)
                if met is not None and pool:
                    pool = met & pool
                if not pool:
                    break
                if column is not None:
                    pools[column] = pool
            else:
                slots[depth] = node
                for column in shown:
                    pools[column] = (node,)
                if depth < last:
                    depth += 1
                    found = _candidates(levels[depth], slots)
                    if found and anchored[depth]:
                        pinned = _pinned(levels[depth].leaves, slots)
                        if pinned is None:
                            found = ()
                        else:
                            live[depth] = pinned
                    stack[depth] = iter(found)
                    break
                if tail is not None:
                    found = _candidates(tail, slots)
                    if not found:
                        continue
                    for column in tail.shown:
                        pools[column] = found
                yield pools
        else:
            depth -= 1


def reference_rows(
    ag: AnswerGraph, order: Sequence[int] | None = None, columns: Sequence[int] | None = None
) -> list[Row]:
    """The projected rows (all variables if ``columns`` is given as
    ``range(num_vars)``), in the depth-first enumerator's order."""
    bound = ag.bound
    distinct = bound.distinct if columns is None else False
    columns = bound.projection if columns is None else columns
    deadline = Deadline.unlimited()
    shape = _shape(ag, order, columns, distinct)
    plan = shape and _compile(ag, shape, deadline)
    if plan is None:
        return []
    rows = chain.from_iterable(product(*pools) for pools in assignments(plan, shape.width))
    return list(rows if shape.exact else _unique(rows))
