"""Phase 2: defactorization — generating embeddings from the AG.

"The embedding tuples are then generated over the answer graph by
joining the answer edges appropriately. Given the ideal answer graph
and an acyclic CQ, the order in which we join is immaterial. No k-ary
tuple is ever eliminated during a join with a next query edge from the
iAG." — §3

The joins run *over the answer graph*, never the data graph, and keep
its factorization "fully down to component node pairs" (§2) for as long
as the output format allows:

* A **hanging leaf** is a variable that occurs in exactly one query
  edge (var–var, not a self-loop). Given its *anchor*, the node at the
  other end, its values are the anchor's AG adjacency set, independent
  of every other variable.
* The remaining **skeleton** variables are enumerated variable-at-a-
  time, in first-appearance order of the embedding plan. A variable's
  candidates are the ``set.intersection`` of the adjacency sets that
  reach it from already-known nodes and constants, smallest first: the
  closing edge of a cycle is an intersection in C, never an expand
  followed by a check (the Generic-Join step).
* A complete skeleton assignment **emits factorized**: its rows are
  ``itertools.product`` over one pool per output column — a 1-tuple
  for a skeleton value, the adjacency set for a leaf — built in C with
  no per-row Python. Counting multiplies the pool sizes instead; a
  limited result does both, building rows only until it holds enough.

The join order is an :class:`~repro.planner.plan.EmbeddingPlan`: any
connected order yields the same rows on any AG. All it decides is the
order of the skeleton variables, which on non-ideal AGs and cyclic
queries changes how many partial assignments a later intersection
discards. Row order is unspecified (set iteration).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, islice, product
from math import prod
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

from repro.core.answer_graph import AnswerGraph
from repro.core.kernels import BLOCK, Adjacency
from repro.errors import PlanError
from repro.planner.plan import validate_connected_order
from repro.utils.deadline import Deadline

Row = tuple[int, ...]
_NONE: frozenset[int] = frozenset()


class _Level(NamedTuple):
    """One skeleton variable: its candidates' sources and its outputs."""

    joins: list[tuple[Adjacency, int]]  # (adjacency from the known side, its slot)
    loops: list[Adjacency]  # self-loop relations a candidate must satisfy
    domain: Collection[int | None]  # the candidates when no join constrains them
    shown: list[int]  # output columns showing this variable
    #: hanging leaves anchored here: (output column, adjacency towards
    #: the leaf); column ``None`` only requires the set to be non-empty
    leaves: list[tuple[int | None, Adjacency]]


class _Plan(NamedTuple):
    #: ``levels[0]`` is a root whose one candidate is ``None``, so every
    #: variable is reached by the same descent step
    levels: list[_Level]
    #: a last variable anchoring no leaf: its candidates go out whole,
    #: as one more pool, instead of being iterated
    tail: _Level | None
    slots: list[int | None]  # known nodes: one per level, then the constants
    pools: list[Collection[int]]  # one per output column
    exact: bool  # False when DISTINCT still has to de-duplicate rows


def _compile(
    ag: AnswerGraph,
    order: Sequence[int] | None,
    columns: Sequence[int],
    distinct: bool,
    deadline: Deadline,
) -> _Plan | None:
    """Split the query into skeleton levels and hanging leaves, in
    O(|query|) plus the AG indexes it is first to read: each edge is
    asked for the one direction its join or leaf descends, which phase
    1 may not have built. ``None`` means the AG provably holds no
    embedding."""
    edges = ag.bound.edges
    if ag.empty:
        return None
    if order is None:
        order = tuple(range(len(edges)))
    validate_connected_order(order, [e.term_tokens() for e in edges])
    if len(order) != len(edges):
        raise PlanError("embedding order must cover every query edge")
    for eid in order:
        if not ag.is_materialized(("e", eid)):
            raise PlanError(f"edge {eid} was never materialized in the AG")

    shown_at: dict[int, list[int]] = {}
    for column, var in enumerate(columns):
        shown_at.setdefault(var, []).append(column)

    def poolable(var: int) -> bool:
        # May var's values go out as one whole pool? Yes if it fills one
        # output column, or none under DISTINCT (it only has to exist).
        # Projected away under bag semantics it multiplies rows, shown
        # twice it must agree with itself: both are left to enumeration.
        shown = shown_at.get(var, ())
        return len(shown) == 1 or (distinct and not shown)

    degree = Counter(v for e in edges for v in e.var_set())
    leaf_edges: dict[int, int] = {}  # edge index -> its leaf variable
    for e in edges:
        if e.s_var is not None and e.o_var is not None and e.s_var != e.o_var:
            for var in (e.o_var, e.s_var):
                if degree[var] == 1 and poolable(var):
                    leaf_edges[e.index] = var
                    break
    leaf_vars = set(leaf_edges.values())

    level_of: dict[int, int] = {}
    for eid in order:
        for var in (edges[eid].s_var, edges[eid].o_var):
            if var is not None and var not in leaf_vars:
                level_of.setdefault(var, len(level_of) + 1)
    levels = [_Level([], [], (None,), [], [])] + [
        _Level([], [], ag.node_sets.get(var, _NONE), shown_at.get(var, []), [])
        for var in level_of
    ]
    slots: list[int | None] = [None] * len(levels)

    for e in edges:
        rel = ("e", e.index)
        s, o = e.s_var, e.o_var
        if e.index in leaf_edges:
            leaf = leaf_edges[e.index]
            anchor, pos = (s, "s") if leaf == o else (o, "o")
            column = shown_at[leaf][0] if leaf in shown_at else None
            levels[level_of[anchor]].leaves.append((column, ag.index(rel, pos, deadline)))
        elif s is not None and s == o:
            levels[level_of[s]].loops.append(ag.forward(rel, deadline))
        elif s is not None and o is not None:
            if level_of[s] < level_of[o]:
                levels[level_of[o]].joins.append((ag.forward(rel, deadline), level_of[s]))
            else:
                levels[level_of[s]].joins.append((ag.backward(rel, deadline), level_of[o]))
        elif s is not None or o is not None:  # the constant end is known from the start
            var, pos, const = (o, "s", e.s_const) if s is None else (s, "o", e.o_const)
            levels[level_of[var]].joins.append((ag.index(rel, pos, deadline), len(slots)))
            slots.append(const)
        elif e.o_const not in ag.forward(rel, deadline).get(e.s_const, _NONE):
            return None
    exact = not distinct or all(var in shown_at for var in level_of)
    pooled = level_of and poolable(next(reversed(level_of))) and not levels[-1].leaves
    tail = levels.pop() if pooled else None
    return _Plan(levels, tail, slots, [()] * len(columns), exact)


def _candidates(level: _Level, slots: list[int | None]) -> Collection[int | None]:
    if not level.joins:
        found = level.domain
    elif len(level.joins) == 1:
        adj, slot = level.joins[0]
        found = adj.get(slots[slot], _NONE)
    else:
        sets = [adj.get(slots[slot], _NONE) for adj, slot in level.joins]
        if len(sets) > 2:  # a two-set intersection already iterates the smaller
            sets.sort(key=len)
        found = sets[0].intersection(*sets[1:])
    for adj in level.loops:
        found = [node for node in found if node in adj.get(node, _NONE)]
    return found


def _assignments(plan: _Plan, deadline: Deadline) -> Iterator[list[Collection[int]]]:
    """Enumerate the skeleton; yield ``plan.pools`` (the same list,
    refilled in place) once per complete assignment.

    The deadline is charged one unit per candidate considered, so dead
    branches of a cyclic query are bounded like productive ones.
    """
    levels, tail, slots, pools = plan.levels, plan.tail, plan.slots, plan.pools
    last = len(levels) - 1
    check = deadline.check_every
    stack: list[Iterator[int | None]] = [iter(levels[0].domain)] + [iter(())] * last
    depth = 0
    while depth >= 0:
        shown, leaves = levels[depth].shown, levels[depth].leaves
        for node in stack[depth]:
            for column, adj in leaves:
                pool = adj.get(node)
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
                    check(len(found) or 1)
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


def _blocks(plan: _Plan, deadline: Deadline) -> Iterator[Iterable[Row]]:
    """The result as lazy C-level row iterators, one per skeleton
    assignment; a product above ``BLOCK`` rows comes in ``BLOCK``-row
    slices with a deadline poll between, as in phase 1."""
    check = deadline.check_every
    for pools in _assignments(plan, deadline):
        size = prod(map(len, pools))
        rows = product(*pools)
        if size <= BLOCK:
            check(size)
            yield rows
        else:
            for _ in range(0, size, BLOCK):
                check(BLOCK)
                yield islice(rows, BLOCK)


def _unique(rows: Iterable[Row]) -> Iterator[Row]:
    seen: set[Row] = set()
    for row in rows:
        if row not in seen:
            seen.add(row)
            yield row


def iter_embeddings(
    ag: AnswerGraph, order: Sequence[int] | None = None, deadline: Deadline | None = None
) -> Iterator[Row]:
    """Enumerate full embeddings (one node id per query variable).

    ``order`` is the join order over query-edge indexes (defaults to
    plan-free textual order, which is valid whenever the query is
    connected). Lazily yields tuples aligned with ``bound.var_names``.
    """
    deadline = deadline or Deadline.unlimited()
    plan = _compile(ag, order, range(ag.bound.num_vars), False, deadline)
    if plan is not None:
        yield from chain.from_iterable(_blocks(plan, deadline))


def materialize_embeddings(
    ag: AnswerGraph,
    order: Sequence[int] | None = None,
    deadline: Deadline | None = None,
) -> list[Row]:
    """All projected result rows (respecting projection and DISTINCT);
    :func:`first_embeddings` gives the first few and their count."""
    bound = ag.bound
    deadline = deadline or Deadline.unlimited()
    plan = _compile(ag, order, bound.projection, bound.distinct, deadline)
    if plan is None:
        return []
    rows = chain.from_iterable(_blocks(plan, deadline))
    if not plan.exact:
        rows = _unique(rows)
    return list(rows)


def first_embeddings(
    ag: AnswerGraph,
    limit: int,
    order: Sequence[int] | None = None,
    deadline: Deadline | None = None,
) -> tuple[list[Row], int]:
    """The first ``limit`` projected result rows — exactly the head of
    :func:`materialize_embeddings`' list — and the exact number of rows.

    One pass over the skeleton: every assignment adds its pool sizes'
    product to the count, and only while fewer than ``limit`` rows are
    held does it build rows, ``BLOCK`` at a time from its product. Under
    DISTINCT with a skeleton variable projected away rows must be built
    to be told apart, so every one is enumerated and the head kept.
    """
    bound = ag.bound
    deadline = deadline or Deadline.unlimited()
    plan = _compile(ag, order, bound.projection, bound.distinct, deadline)
    if plan is None:
        return [], 0
    if not plan.exact:
        unique = list(_unique(chain.from_iterable(_blocks(plan, deadline))))
        return unique[:limit], len(unique)
    rows: list[Row] = []
    count = 0
    check = deadline.check_every
    for pools in _assignments(plan, deadline):
        size = prod(map(len, pools))
        count += size
        wanted = min(size, limit - len(rows))
        if wanted > 0:
            block = product(*pools)
            while wanted > 0:
                step = min(wanted, BLOCK)
                check(step)
                rows.extend(islice(block, step))
                wanted -= step
    return rows, count


def count_embeddings(
    ag: AnswerGraph, order: Sequence[int] | None = None, deadline: Deadline | None = None
) -> int:
    """Number of projected result rows: the pool sizes multiplied per
    skeleton assignment, no row ever built — unless DISTINCT projects a
    skeleton variable away, when rows must be kept to be told apart."""
    bound = ag.bound
    deadline = deadline or Deadline.unlimited()
    # Bag semantics count embeddings, whatever the projection shows.
    columns = bound.projection if bound.distinct else range(bound.num_vars)
    plan = _compile(ag, order, columns, bound.distinct, deadline)
    if plan is None:
        return 0
    if not plan.exact:
        return len(set(chain.from_iterable(_blocks(plan, deadline))))
    return sum(prod(map(len, pools)) for pools in _assignments(plan, deadline))
