"""Phase 2: defactorization — generating embeddings from the AG.

"The embedding tuples are then generated over the answer graph by
joining the answer edges appropriately. Given the ideal answer graph
and an acyclic CQ, the order in which we join is immaterial. No k-ary
tuple is ever eliminated during a join with a next query edge from the
iAG." — §3

The joins run *over the answer graph*, never the data graph, and keep
its factorization "fully down to component node pairs" (§2) for as long
as the output format allows:

* A **pool** is a variable whose values, once its *anchors* (the
  variables at the other ends of its edges) are known, are the
  intersection of their AG adjacency sets towards it, smallest first,
  independent of every other variable. The common case is a **hanging
  leaf**: a variable in exactly one query edge (var–var, not a
  self-loop), with one anchor. A variable with several anchors is a
  pool when it may go out whole, has no self-loop, no constant edge
  and no chord, its edges go to distinct skeleton variables, and those
  are pairwise joined by an edge or a chord — the apex of a triangle,
  such as each apex of the paper's diamonds once their chord is kept.
  Pools are chosen from the query (variables in index order), never
  from the embedding order. An acyclic query has only leaves.
* The remaining **skeleton** variables are levels, in first-appearance
  order of the embedding plan, enumerated **a level at a time** for a
  block of assignments, in C-level iterators only. A level's
  candidates are ``map(adj.get, parent_column)`` over its join, met by
  ``&`` with its other joins' buckets and the constants' (the
  ``set.intersection`` of them, smallest first beyond two): the closing
  edge of a cycle is an intersection in C, never an expand followed by
  a check (the Generic-Join step). A chord phase 1 kept in the AG
  (:mod:`repro.core.triangles`) is one more such join, so on a diamond
  the skeleton is the chord's two ends and enumeration visits the
  chord's pairs only. Earlier columns are stretched to the new rows by
  ``repeat``. A pool is met at its deepest anchor, its earlier anchors'
  buckets met once per parent row; an assignment an empty pool leaves
  is dropped by ``compress``. Rows keep the depth-first order of an
  enumerator that binds one assignment at a time.
* A block of complete assignments **emits factorized**: its rows are
  ``chain.from_iterable(map(product, *columns))`` over one column per
  output column — a 1-tuple per skeleton value, the set per pool —
  built in C with no per-row Python: a union of products over the
  skeleton's assignments, FDB's f-representation (Olteanu & Závodný,
  TODS 2015). When every pool holds one node in every assignment (a
  property of the data, such as a path's edges) there is nothing to
  multiply: the pools are flattened and the rows are ``zip`` of the
  columns.

Counting builds no row and, where the skeleton is a forest (every
acyclic query), enumerates no assignment either: one bottom-up pass
gives each node the number of rows below it — its leaves' pool sizes
times, per child variable, the sum of the child's weights over the
node's adjacency set — the count over a factorized representation of
Yannakakis and FDB (Olteanu & Závodný, TODS 2015), linear in |AG|. The
pass reads an index phase 1 did not build only as bucket sizes, and
roots each tree where its joins descend the built ones.
:mod:`repro.core.factorized` reads marginals and samples off the same
forest (:func:`_skeleton_forest`), with every variable in it. A limited
result takes that count and then enumerates only until it holds
``limit`` rows, in blocks sized by the rows still wanted, reading an
unbuilt index at the keys it visits. A
cycle's closing variable, a pool with several anchors, or DISTINCT
over a projected-away skeleton variable, still counts by enumeration.

The join order is an :class:`~repro.planner.plan.EmbeddingPlan`: any
connected order yields the same rows on any AG. All it decides is the
order of the skeleton variables, which on non-ideal AGs and cyclic
queries changes how many partial assignments a later intersection
discards; with at most one skeleton variable, or the two ends of a
kept chord, it decides nothing (:func:`plan_free_order`). Row order is
unspecified (set iteration); a limited head is still the unlimited
rows' head.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import chain, combinations, compress, islice, product, repeat
from operator import and_, lt, mul
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from repro.core.answer_graph import AnswerGraph, RelKey
from repro.core.kernels import BLOCK, Adjacency
from repro.errors import PlanError
from repro.planner.plan import validate_connected_order
from repro.query.algebra import BoundEdge
from repro.utils.deadline import Deadline

Row = tuple[int, ...]
_NONE: frozenset[int] = frozenset()


class _Shape(NamedTuple):
    """How a query splits into skeleton and pools, before any index
    is read."""

    width: int  # output columns
    shown_at: dict[int, list[int]]  # var -> the output columns showing it
    pool_edges: dict[int, int]  # edge index -> the pool variable it anchors
    #: whether some pool has more than one anchor (the query is cyclic)
    meets: bool
    level_of: dict[int, int]  # skeleton var -> level, by first appearance
    #: whether the last skeleton variable may go out as one whole pool
    #: (it does if it anchors no pool)
    poolable_last: bool
    exact: bool  # False when DISTINCT still has to de-duplicate rows


#: A pool closing at a level: (output column, the adjacency from this
#: level's node towards the pool, the same from earlier anchors with
#: their slots); column ``None`` only requires the pool to be non-empty
_Pool = tuple[int | None, Adjacency, list[tuple[Adjacency, int]]]


class _Level(NamedTuple):
    """One skeleton variable: its candidates' sources and its outputs."""

    joins: list[tuple[Adjacency, int]]  # (adjacency from the known side, its slot)
    loops: list[Adjacency]  # self-loop relations a candidate must satisfy
    domain: Collection[int | None]  # the candidates when no join constrains them
    shown: list[int]  # output columns showing this variable
    #: the pools whose deepest anchor is this variable
    leaves: list[_Pool]


class _Plan(NamedTuple):
    #: ``levels[0]`` is a root whose one candidate is ``None``, so every
    #: variable is reached by the same descent step
    levels: list[_Level]
    #: a last variable anchoring no pool: its candidates go out whole,
    #: as one more pool, instead of being iterated
    tail: _Level | None
    #: one per level (a level's slot is its node column), then the
    #: constants' nodes
    slots: list[int | None]


def _index(ag: AnswerGraph, rel: RelKey, pos: str, deadline: Deadline) -> Adjacency:
    """``ag.index(rel, pos)``, whose buckets, if phase 2 has to build
    it, hold their nodes in ascending order — the order
    :meth:`AnswerGraph.bucket` reads one in. Set iteration follows
    insertion order where hashes collide, so this is what makes a
    limited evaluation enumerate exactly like an unlimited one. A
    one-node bucket is in order already."""
    adj = ag.built(rel, pos)
    if adj is None:
        adj = ag.index(rel, pos, deadline)
        for key in list(compress(adj, map(partial(lt, 1), map(len, adj.values())))):
            adj[key] = set(sorted(adj[key]))
    return adj


class _Buckets:
    """An index phase 1 did not build, read only at the keys that
    enumeration visits, each once: off the store while the relation is
    live (:meth:`AnswerGraph.bucket`), else from the index built whole."""

    __slots__ = ("_read", "_build", "_seen")

    def __init__(self, ag: AnswerGraph, rel: RelKey, pos: str, deadline: Deadline):
        self._read = partial(ag.bucket, rel, pos)
        self._build = partial(_index, ag, rel, pos, deadline)
        self._seen: dict[int | None, Collection[int]] = {}

    def get(self, key: int | None, default: object = None) -> Collection[int]:
        bucket = self._seen.get(key)
        if bucket is None:
            bucket = self._read(key)
            if bucket is None:
                bucket = self._build().get(key, _NONE)
            self._seen[key] = bucket
        return bucket


def _shown_at(columns: Sequence[int]) -> dict[int, list[int]]:
    """var -> the output columns showing it."""
    shown_at: dict[int, list[int]] = {}
    for column, var in enumerate(columns):
        shown_at.setdefault(var, []).append(column)
    return shown_at


def _poolable(var: int, shown_at: Mapping[int, list[int]], distinct: bool) -> bool:
    """May ``var``'s values go out as one whole pool? Yes if it fills
    one output column, or none under DISTINCT (it only has to exist).
    Projected away under bag semantics it multiplies rows, shown twice
    it must agree with itself: both are left to enumeration."""
    shown = shown_at.get(var, ())
    return len(shown) == 1 or (distinct and not shown)


def _leaf_edges(
    edges: Sequence[BoundEdge], shown_at: Mapping[int, list[int]], distinct: bool
) -> dict[int, int]:
    """Edge index -> its hanging leaf variable, for every var–var edge
    one of whose ends occurs nowhere else and may go out as a pool."""
    degree = Counter(v for e in edges for v in e.var_set())
    leaf_edges: dict[int, int] = {}
    for e in edges:
        if e.s_var is not None and e.o_var is not None and e.s_var != e.o_var:
            for var in (e.o_var, e.s_var):
                if degree[var] == 1 and _poolable(var, shown_at, distinct):
                    leaf_edges[e.index] = var
                    break
    return leaf_edges


def _pool_edges(
    ag: AnswerGraph, shown_at: Mapping[int, list[int]], distinct: bool
) -> dict[int, int]:
    """Edge index -> the pool variable it anchors: every hanging leaf's
    edge (:func:`_leaf_edges`), and every edge of a variable whose
    values are the intersection of its anchors' buckets. Such a variable
    may go out whole, has no self-loop, no constant edge and no chord,
    its edges go to distinct skeleton variables, and those are pairwise
    joined by an edge or a chord of ``ag``. Variables are tried in index
    order, so the choice is the query's, not the embedding order's."""
    edges = ag.bound.edges
    pooled = _leaf_edges(edges, shown_at, distinct)
    taken = set(pooled.values())  # variables that are not skeleton
    chords = [rv for rel, rv in ag.rel_vars.items() if rel[0] == "c"]
    # var -> [(edge index, its other end)], None once an edge on var
    # has a constant end or is a self-loop
    near: dict[int, list[tuple[int, int]] | None] = {}
    for e in edges:
        s, o = e.s_var, e.o_var
        if s is None or o is None or s == o:
            for var in (s, o):
                if var is not None:
                    near[var] = None
            continue
        for var, anchor in ((s, o), (o, s)):
            found = near.setdefault(var, [])
            if found is not None:
                found.append((e.index, anchor))
    for u, v in chords:
        near[u] = near[v] = None
    joined: set[tuple[int | None, int | None]] | None = None
    for var in sorted(near):
        found = near[var]
        if not found or len(found) < 2 or var in taken:
            continue
        anchors = [anchor for _, anchor in found]
        if len(set(anchors)) < len(anchors) or taken.intersection(anchors):
            continue
        if not _poolable(var, shown_at, distinct):
            continue
        if joined is None:
            joined = {(e.s_var, e.o_var) for e in edges}
            joined.update(chords)
        if all((a, b) in joined or (b, a) in joined for a, b in combinations(anchors, 2)):
            taken.add(var)
            pooled.update((eid, var) for eid, _ in found)
    return pooled


def _shape(
    ag: AnswerGraph, order: Sequence[int] | None, columns: Sequence[int], distinct: bool
) -> _Shape | None:
    """Validate ``order`` and split the query into skeleton levels and
    pools, in O(|query|²) and reading no index. ``None`` means the AG
    is empty."""
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

    shown_at = _shown_at(columns)
    pool_edges = _pool_edges(ag, shown_at, distinct)
    pool_vars = set(pool_edges.values())

    level_of: dict[int, int] = {}
    for eid in order:
        for var in (edges[eid].s_var, edges[eid].o_var):
            if var is not None and var not in pool_vars:
                level_of.setdefault(var, len(level_of) + 1)
    return _Shape(
        len(columns),
        shown_at,
        pool_edges,
        len(pool_vars) < len(pool_edges),
        level_of,
        bool(level_of) and _poolable(next(reversed(level_of)), shown_at, distinct),
        not distinct or all(var in shown_at for var in level_of),
    )


def _compile(
    ag: AnswerGraph, shape: _Shape, deadline: Deadline, lazy: bool = False
) -> _Plan | None:
    """Bind the shape's levels and pools to the AG indexes they
    descend, in O(|query|) plus the indexes it is first to read: each
    edge, and each chord the AG keeps, is asked for the one direction
    its join or pool descends, which phase 1 may not have built.
    ``lazy`` reads such a direction only at the keys enumeration
    visits; otherwise it is built whole.
    ``None`` means the AG provably holds no embedding."""
    edges = ag.bound.edges
    shown_at, pool_edges, level_of = shape.shown_at, shape.pool_edges, shape.level_of

    def index(rel: RelKey, pos: str) -> Adjacency:
        if lazy and ag.built(rel, pos) is None:
            return _Buckets(ag, rel, pos, deadline)
        return _index(ag, rel, pos, deadline)

    def join(rel: RelKey, s: int, o: int) -> None:
        if level_of[s] < level_of[o]:
            levels[level_of[o]].joins.append((index(rel, "s"), level_of[s]))
        else:
            levels[level_of[s]].joins.append((index(rel, "o"), level_of[o]))

    levels = [_Level([], [], (None,), [], [])] + [
        _Level([], [], ag.node_sets.get(var, _NONE), shown_at.get(var, []), [])
        for var in level_of
    ]
    slots: list[int | None] = [None] * len(levels)
    anchored: dict[int, list[tuple[Adjacency, int]]] = {}  # pool var -> (index, level)

    for e in edges:
        rel = ("e", e.index)
        s, o = e.s_var, e.o_var
        if e.index in pool_edges:
            pool = pool_edges[e.index]
            anchor, pos = (s, "s") if pool == o else (o, "o")
            anchored.setdefault(pool, []).append((index(rel, pos), level_of[anchor]))
        elif s is not None and s == o:
            levels[level_of[s]].loops.append(ag.forward(rel, deadline))
        elif s is not None and o is not None:
            join(rel, s, o)
        elif s is not None or o is not None:  # the constant end is known from the start
            var, pos, const = (o, "s", e.s_const) if s is None else (s, "o", e.o_const)
            levels[level_of[var]].joins.append((index(rel, pos), len(slots)))
            slots.append(const)
        elif e.o_const not in ag.forward(rel, deadline).get(e.s_const, _NONE):
            return None
    for rel, (u, v) in ag.rel_vars.items():
        if rel[0] == "c" and u in level_of and v in level_of:
            join(rel, u, v)  # a chord: one more skeleton join
    for pool, anchors in anchored.items():
        # A pool closes at its deepest anchor; the others are known by then.
        anchors.sort(key=lambda anchor: anchor[1])
        adj, level = anchors.pop()
        column = shown_at[pool][0] if pool in shown_at else None
        levels[level].leaves.append((column, adj, anchors))
    tail = levels.pop() if shape.poolable_last and not levels[-1].leaves else None
    return _Plan(levels, tail, slots)


def _meet(sets: list[Collection[int]]) -> Collection[int]:
    """The intersection of ``sets``, smallest first (one set: itself)."""
    if len(sets) == 1:
        return sets[0]
    if len(sets) > 2:  # a two-set intersection already iterates the smaller
        sets.sort(key=len)
    return sets[0].intersection(*sets[1:])


def _met(buckets: list[Iterator[Collection[int]]]) -> Iterator[Collection[int]]:
    """Per row, the :func:`_meet` of one bucket from each iterator: the
    bucket itself, or ``a & b`` (which is ``a.intersection(b)``) in C,
    or beyond two a call per row."""
    if len(buckets) == 1:
        return buckets[0]
    if len(buckets) == 2:
        return map(and_, *buckets)
    return map(_meet, map(list, zip(*buckets)))


def _looped(adj: Adjacency, found: Iterable[int]) -> list[int]:
    """The nodes of ``found``, in order, that a self-loop relation pairs
    with themselves."""
    return [node for node in found if node in adj.get(node, _NONE)]


def _candidates(
    level: _Level, columns: list[list | None], slots: list[int | None], rows: int
) -> Iterator[Collection[int | None]]:
    """Each row's candidates for ``level``: the meet of the buckets its
    joins reach from the row's known nodes (``columns``, by level) and
    the constants, or the level's domain when no join constrains it;
    then what its self-loops keep."""
    known = len(columns)
    if level.joins:
        found = _met([
            map(adj.get, columns[slot], repeat(_NONE)) if slot < known
            else repeat(adj.get(slots[slot], _NONE), rows)
            for adj, slot in level.joins
        ])
    else:
        found = repeat(level.domain, rows)
    for adj in level.loops:
        found = map(partial(_looped, adj), found)
    return found


def _stretch(cells: list, counts: list[int]) -> list:
    """``cells`` with each one repeated ``counts`` times: a parent row's
    values carried to its children."""
    return list(chain.from_iterable(map(repeat, cells, counts)))


def _drop(
    keep: list, columns: list[list | None], pools: dict[int, list], mets: list[list | None]
) -> None:
    """Keep, in place, the rows whose ``keep`` cell is non-empty."""
    for j, cells in enumerate(columns):
        if cells is not None:
            columns[j] = list(compress(cells, keep))
    for column, cells in pools.items():
        pools[column] = list(compress(cells, keep))
    for i, cells in enumerate(mets):
        if cells is not None:
            mets[i] = list(compress(cells, keep))


def _rows(assignments: int, columns: list[tuple[bool, list]]) -> tuple[int, Iterator[Row]]:
    """A block's row count and its rows, lazily, in C, from one
    ``(pooled, cells)`` per output column: a pool of nodes or one node
    per assignment. When every pool holds one node in every assignment
    the pools are flattened and the rows are ``zip`` of the columns;
    otherwise they are FDB's union of products, one ``product`` per
    assignment over a 1-tuple per node column and the pool per pooled
    one."""
    if not columns:
        return assignments, repeat((), assignments)
    flat = []
    for pooled, cells in columns:
        if pooled:
            cells = list(chain.from_iterable(cells))
            # No pool is empty: one node each iff as many as assignments.
            if len(cells) != assignments:
                break
        flat.append(cells)
    else:
        return assignments, zip(*flat)
    pools = [cells for pooled, cells in columns if pooled]
    sizes = map(len, pools[0])
    for cells in pools[1:]:
        sizes = map(mul, sizes, map(len, cells))
    return sum(sizes), chain.from_iterable(
        map(product, *[cells if pooled else zip(cells) for pooled, cells in columns]))


#: A block of skeleton assignments at one level, before its pools are
#: read: ``(level, node columns by level, pool columns by output column,
#: per pool of the level what its earlier anchors met)``
_Block = tuple[int, list[list | None], dict[int, list], list[list | None]]


def _part(block: _Block, part: slice) -> _Block:
    """The assignments ``part`` of ``block``."""
    d, columns, pools, mets = block
    return (
        d,
        [None if cells is None else cells[part] for cells in columns],
        {column: cells[part] for column, cells in pools.items()},
        [None if cells is None else cells[part] for cells in mets],
    )


def _levelwise(
    plan: _Plan, width: int, deadline: Deadline, limit: int | None = None
) -> Iterator[tuple[int, Iterator[Row]]]:
    """Enumerate the skeleton one level at a time for a block of root
    candidates; per block of complete assignments yield its row count
    and its rows (:func:`_rows`), in depth-first order.

    A level's candidates are its joins' buckets read off the parent
    column by ``map`` and met by ``&``; a parent row's values are
    carried to its children by ``repeat``; an assignment an empty pool
    leaves is dropped by ``compress``. No step is taken per
    assignment in Python, but for a self-loop and for a meet of more
    than two buckets. A level larger than ``BLOCK`` assignments is
    split, its blocks finished first to last. With a ``limit`` blocks
    start one assignment long and at most double, sized by the rows
    still wanted over the rows a level's assignments gave so far: a
    limited result reads little more of the AG than its rows need. The
    deadline is charged per level, one unit per candidate.
    """
    levels, tail, slots = plan.levels, plan.tail, plan.slots
    check = deadline.check_every
    last = len(levels) - 1
    top = min(1, last)
    shown_at = {column: d for d, level in enumerate(levels) for column in level.shown}
    (roots,) = _candidates(levels[top], [], slots, 1)
    check(len(roots) or 1)
    roots = iter(roots)
    # Per level, the most assignments a block holds, and how many went in.
    caps = [BLOCK if limit is None else 1] * len(levels)
    taken = [0] * len(levels)
    produced = 0
    stack: list[_Block] = []
    while True:
        if stack:
            block = stack.pop()
            cap = caps[block[0]]
            if len(block[1][block[0]]) > cap:  # the first ``cap`` go first
                stack.append(_part(block, slice(cap, None)))
                block = _part(block, slice(0, cap))
            d, columns, pools, mets = block
        else:
            d, columns, pools = top, [None] * len(levels), {}
            columns[top] = list(islice(roots, caps[top]))
            if not columns[top]:
                return
            if limit is not None:
                caps[top] = min(2 * caps[top], BLOCK)
            mets = [None] * len(levels[top].leaves)
        taken[d] += len(columns[d])
        level = levels[d]
        for i, (column, adj, _) in enumerate(level.leaves):
            pool = map(adj.get, columns[d], repeat(_NONE))
            if mets[i] is not None:
                pool = map(and_, mets[i], pool)
            pool = list(pool)
            if not all(pool):
                _drop(pool, columns, pools, mets)
                pool = list(filter(None, pool))
            if column is not None:
                pools[column] = pool
        rows = len(columns[d])
        if not rows:
            continue
        if d < last:
            d += 1
            level = levels[d]
            found = list(_candidates(level, columns, slots, rows))
            mets = [
                list(_met([map(a.get, columns[slot], repeat(_NONE)) for a, slot in anchors]))
                if anchors else None
                for _, _, anchors in level.leaves
            ]
            nodes = list(chain.from_iterable(found))
            check(len(nodes) or 1)
            if not nodes:
                continue
            # Unless every parent has exactly one child, carry the
            # parents' values down.
            if len(nodes) != rows or not all(found):
                counts = list(map(len, found))
                columns = [cells and _stretch(cells, counts) for cells in columns]
                pools = {column: _stretch(cells, counts) for column, cells in pools.items()}
                mets = [cells and _stretch(cells, counts) for cells in mets]
            columns[d] = nodes
            stack.append((d, columns, pools, mets))
            continue
        if tail is not None:
            found = list(_candidates(tail, columns, slots, rows))
            check(rows)
            if not all(found):
                _drop(found, columns, pools, [])
                found = list(filter(None, found))
                rows = len(found)
                if not rows:
                    continue
            for column in tail.shown:
                pools[column] = found
        size, out = _rows(rows, [
            (True, pools[c]) if c in pools else (False, columns[shown_at[c]])
            for c in range(width)
        ])
        yield size, out
        if limit is not None:
            # A level's next block: as many assignments as the rows still
            # wanted take at its rate so far, at most twice the last one.
            produced += size
            wanted = limit - produced
            caps = [max(1, min(2 * cap, BLOCK, -(-wanted * n // produced)))
                    for cap, n in zip(caps, taken)]


def _slices(plan: _Plan, width: int, deadline: Deadline) -> Iterator[Iterable[Row]]:
    """The result as lazy row iterators of at most ``BLOCK`` rows each,
    the deadline charged per slice, as in phase 1."""
    check = deadline.check_every
    for size, rows in _levelwise(plan, width, deadline):
        for start in range(0, size, BLOCK):
            check(min(BLOCK, size - start))
            yield islice(rows, BLOCK)


def _unique(rows: Iterable[Row]) -> Iterator[Row]:
    seen: set[Row] = set()
    for row in rows:
        if row not in seen:
            seen.add(row)
            yield row


# ----------------------------------------------------------------------
# Counting bottom-up
# ----------------------------------------------------------------------


#: One factor of a node's weight: ``(mapping, default, measure)`` gives
#: ``measure(mapping.get(node, default))``, or the value itself when
#: ``measure`` is ``None``.
_Factor = tuple[Mapping[int, object], object, Callable[[object], int] | None]


def _weighed(factors: list[_Factor], nodes: Iterable[int]) -> Iterator[int]:
    """Each node's product of ``factors``, lazily, one C-level ``map``
    per factor over ``nodes`` (iterated once per factor)."""
    out = None
    for mapping, default, measure in factors:
        values = map(mapping.get, nodes, repeat(default))
        if measure is not None:
            values = map(measure, values)
        out = values if out is None else map(mul, out, values)
    return out


def _sums(adj: Adjacency, weight: Mapping[int, int] | None, deadline: Deadline) -> dict[int, int]:
    """``{key: Σ weight over adj[key]}`` — a child variable's message to
    its parent, one C-level ``map``/``sum`` per bucket and a deadline
    poll per ``BLOCK`` buckets. ``weight`` ``None`` weighs every node 1."""
    if weight is None:
        deadline.check_every(len(adj))
        return dict(zip(adj, map(len, adj.values())))
    get, zero, out = weight.get, repeat(0), {}
    keys, buckets = iter(adj), iter(adj.values())
    for _ in range(0, len(adj), BLOCK):
        deadline.check_every(BLOCK)
        sums = map(sum, map(map, repeat(get), islice(buckets, BLOCK), repeat(zero)))
        out.update(zip(islice(keys, BLOCK), sums))
    return out


class _Forest:
    """A skeleton forest, read off the query: per skeleton variable the
    leaves it anchors, its joins to other skeleton variables and the
    values its constants and self-loops leave it. Each ``(variable,
    parent)`` weight map is weighed once and kept for the forest's life,
    so rooting the forest at every variable in turn costs O(|AG|).
    (Methods, not nested functions: recursive closures are reference
    cycles, and every count would leave one to the cyclic collector.)"""

    __slots__ = ("ag", "deadline", "leaves", "links", "allowed", "memo")

    def __init__(self, ag: AnswerGraph, skeleton: Iterable[int], deadline: Deadline):
        self.ag = ag
        self.deadline = deadline
        self.leaves: dict[int, list[tuple[RelKey, str, bool]]] = {v: [] for v in skeleton}
        self.links: dict[int, list[tuple[int, RelKey, str]]] = {v: [] for v in self.leaves}
        self.allowed: dict[int, Collection[int]] = {}
        self.memo: dict[tuple[int, int], Mapping[int, int] | None] = {}

    def allow(self, var: int, nodes: Collection[int]) -> None:
        allowed = self.allowed
        allowed[var] = nodes if var not in allowed else allowed[var] & nodes

    def trees(self) -> Iterator[list[int]]:
        """Each tree's variables, its first skeleton variable first."""
        placed: set[int] = set()
        for var in self.links:
            if var not in placed:
                members = [var] + [child for _, child, _, _ in self.descents(var)]
                placed.update(members)
                yield members

    def descents(self, root: int) -> Iterator[tuple[int, int, RelKey, str]]:
        """(parent, child, relation, parent's end) of the tree below root,
        each parent before its children."""
        stack = [(root, None)]
        while stack:
            var, up = stack.pop()
            for child, rel, pos in self.links[var]:
                if child != up:
                    yield var, child, rel, pos
                    stack.append((child, var))

    def factors(self, var: int, up: int | None) -> list[_Factor]:
        """What multiplies into ``var``'s node weights below ``up``."""
        ag, deadline = self.ag, self.deadline
        found: list[_Factor] = []
        for rel, pos, shown in self.leaves[var]:
            adj = ag.built(rel, pos)
            if adj is not None:
                found.append((adj, _NONE, len if shown else bool))
            else:
                found.append((ag.degrees(rel, pos), 0, None if shown else bool))
            deadline.check_every(len(found[-1][0]))
        for child, rel, pos in self.links[var]:
            if child != up:
                adj = _index(ag, rel, pos, deadline)
                found.append((_sums(adj, self.weights(child, var), deadline), 0, None))
        return found

    def weights(self, var: int, up: int) -> Mapping[int, int] | None:
        """``var``'s node weights below ``up`` (``None``: 1 everywhere)."""
        if (var, up) in self.memo:
            return self.memo[var, up]
        found = self.factors(var, up)
        keep = self.allowed.get(var)
        if not found:
            weights = None if keep is None else dict.fromkeys(keep, 1)
        else:
            nodes = min((mapping for mapping, _, _ in found), key=len)
            if keep is not None:
                nodes = keep if len(keep) <= len(nodes) else [n for n in nodes if n in keep]
            weights = dict(zip(nodes, _weighed(found, nodes)))
        self.memo[var, up] = weights
        return weights

    def rooted(self, root: int) -> tuple[Collection[int], Iterator[int] | None]:
        """``root``'s candidates as its tree's root — what its constants
        and self-loops leave of its node set — and, lazily and in the
        same order, the rows of the tree each one has (``None``: 1)."""
        domain = self.allowed.get(root, self.ag.node_sets.get(root, _NONE))
        found = self.factors(root, None)
        return domain, _weighed(found, domain) if found else None


def _skeleton_forest(
    ag: AnswerGraph,
    skeleton: Iterable[int],
    pool_edges: Mapping[int, int],
    shown_at: Mapping[int, list[int]],
    deadline: Deadline,
) -> _Forest | None:
    """The forest of the joins between ``skeleton``'s variables: each
    edge of ``pool_edges`` a leaf of its anchor, shown if ``shown_at``
    shows the leaf; each constant and self-loop a filter on its
    variable's values; a ground edge the AG does not hold a filter no
    value passes. ``None`` when a join closes a cycle."""
    forest = _Forest(ag, skeleton, deadline)
    tree_of = {v: v for v in forest.links}  # union-find over the joins
    for e in ag.bound.edges:
        rel = ("e", e.index)
        s, o = e.s_var, e.o_var
        if e.index in pool_edges:
            leaf = pool_edges[e.index]
            anchor, pos = (s, "s") if leaf == o else (o, "o")
            forest.leaves[anchor].append((rel, pos, leaf in shown_at))
        elif s is not None and s == o:
            loop = ag.forward(rel, deadline)
            forest.allow(s, {n for n, bucket in loop.items() if n in bucket})
        elif s is not None and o is not None:
            a, b = s, o
            while tree_of[a] != a:
                a = tree_of[a]
            while tree_of[b] != b:
                b = tree_of[b]
            if a == b:
                return None
            tree_of[a] = b
            forest.links[s].append((o, rel, "s"))
            forest.links[o].append((s, rel, "o"))
        elif s is not None or o is not None:
            var, pos, const = (o, "s", e.s_const) if s is None else (s, "o", e.o_const)
            forest.allow(var, _index(ag, rel, pos, deadline).get(const, _NONE))
        elif e.o_const not in ag.forward(rel, deadline).get(e.s_const, _NONE):
            for var in forest.links:
                forest.allow(var, _NONE)
    return forest


def _forest_count(ag: AnswerGraph, shape: _Shape, deadline: Deadline) -> int | None:
    """The exact row count of an exact shape whose skeleton is a forest,
    in one bottom-up pass; ``None`` when a join closes a cycle.

    A node's weight is the number of rows below it: its leaves' pool
    sizes (1 or 0 for a leaf DISTINCT does not show) times, per child
    variable, the child's weights summed over the node's bucket. A
    tree's root sums its weights over the candidates enumeration would
    give it. Leaves are sized off whichever index exists
    (:meth:`AnswerGraph.degrees`); a tree is rooted where the most of
    its joins descend an index phase 1 built, so the others are the
    only ones built.
    """
    if shape.meets:
        return None
    forest = _skeleton_forest(
        ag, shape.level_of, shape.pool_edges, shape.shown_at, deadline)
    if forest is None:
        return None
    total = 1
    for members in forest.trees():  # first appearance: ties root a tree where the order does
        root = max(members, key=lambda r: sum(
            ag.built(rel, pos) is not None for _, _, rel, pos in forest.descents(r)))
        domain, weights = forest.rooted(root)
        total *= len(domain) if weights is None else sum(weights)
        if not total:
            return 0
    return total


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


def _chord_skeleton(ag: AnswerGraph, shown_at: Mapping[int, list[int]]) -> bool:
    """Whether the skeleton is two variables that a pool meets at — so
    they are joined, by an edge or a kept chord, and every order
    enumerates that join's pairs, from one end or the other."""
    if not any(rel[0] == "c" for rel in ag.rel_vars):
        return False
    pooled = _pool_edges(ag, shown_at, ag.bound.distinct)
    pool_vars = set(pooled.values())
    return len(pool_vars) < len(pooled) and ag.bound.num_vars - len(pool_vars) == 2


def plan_free_order(ag: AnswerGraph) -> tuple[int, ...] | None:
    """A connected join order, when the order cannot matter: the
    skeleton of the query's rows has at most one variable, so every
    order enumerates the same way, or it is the two ends of a kept
    chord (:func:`_chord_skeleton`). ``None`` otherwise, or for a
    disconnected query — ask the planner."""
    bound = ag.bound
    shown_at = _shown_at(bound.projection)
    leaves = set(_leaf_edges(bound.edges, shown_at, bound.distinct).values())
    if bound.num_vars - len(leaves) > 1 and not _chord_skeleton(ag, shown_at):
        return None
    tokens = [e.term_tokens() for e in bound.edges]
    order, reached, rest = [0], set(tokens[0]), set(range(1, len(tokens)))
    while rest:
        step = min((eid for eid in rest if tokens[eid] & reached), default=None)
        if step is None:
            return None
        order.append(step)
        reached |= tokens[step]
        rest.discard(step)
    return tuple(order)


def iter_embeddings(
    ag: AnswerGraph, order: Sequence[int] | None = None, deadline: Deadline | None = None
) -> Iterator[Row]:
    """Enumerate full embeddings (one node id per query variable).

    ``order`` is the join order over query-edge indexes (defaults to
    plan-free textual order, which is valid whenever the query is
    connected). Lazily yields tuples aligned with ``bound.var_names``.
    """
    deadline = deadline or Deadline.unlimited()
    shape = _shape(ag, order, range(ag.bound.num_vars), False)
    plan = shape and _compile(ag, shape, deadline)
    if plan is not None:
        yield from chain.from_iterable(_slices(plan, shape.width, deadline))


def materialize_embeddings(
    ag: AnswerGraph,
    order: Sequence[int] | None = None,
    deadline: Deadline | None = None,
) -> list[Row]:
    """All projected result rows (respecting projection and DISTINCT);
    :func:`first_embeddings` gives the first few and their count."""
    bound = ag.bound
    deadline = deadline or Deadline.unlimited()
    shape = _shape(ag, order, bound.projection, bound.distinct)
    plan = shape and _compile(ag, shape, deadline)
    if plan is None:
        return []
    rows = chain.from_iterable(_slices(plan, shape.width, deadline))
    if not shape.exact:
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

    On a skeleton forest the count comes bottom-up and enumeration
    stops once it holds ``limit`` rows, its first block ``limit`` roots
    long, reading what phase 1 did not index only at the nodes it
    visits. Otherwise one pass over the skeleton adds every block's
    row count to the count and builds rows only while fewer than
    ``limit`` are held. Under DISTINCT with a skeleton variable
    projected away rows must be built to be told apart, so every one is
    enumerated and the head kept.
    """
    bound = ag.bound
    deadline = deadline or Deadline.unlimited()
    shape = _shape(ag, order, bound.projection, bound.distinct)
    if shape is None:
        return [], 0
    if not shape.exact:
        plan = _compile(ag, shape, deadline)
        unique = [] if plan is None else list(
            _unique(chain.from_iterable(_slices(plan, shape.width, deadline))))
        return unique[:limit], len(unique)
    count = _forest_count(ag, shape, deadline)
    if count is not None and (count == 0 or limit == 0):
        return [], count
    # Only a known count above the limit lets enumeration stop early.
    early = count is not None and limit < count
    plan = _compile(ag, shape, deadline, lazy=early)
    if plan is None:
        return [], 0
    rows: list[Row] = []
    check = deadline.check_every
    total = 0
    for size, block in _levelwise(plan, shape.width, deadline, limit if early else None):
        total += size
        wanted = min(size, limit - len(rows))
        while wanted > 0:
            step = min(wanted, BLOCK)
            check(step)
            rows.extend(islice(block, step))
            wanted -= step
        if count is not None and len(rows) == limit:
            break
    return rows, total if count is None else count


def count_embeddings(
    ag: AnswerGraph, order: Sequence[int] | None = None, deadline: Deadline | None = None
) -> int:
    """Number of projected result rows, no row ever built: bottom-up on
    a skeleton forest, else the pool sizes multiplied per skeleton
    assignment — unless DISTINCT projects a skeleton variable away,
    when rows must be kept to be told apart."""
    bound = ag.bound
    deadline = deadline or Deadline.unlimited()
    # Bag semantics count embeddings, whatever the projection shows.
    columns = bound.projection if bound.distinct else range(bound.num_vars)
    shape = _shape(ag, order, columns, bound.distinct)
    if shape is None:
        return 0
    if shape.exact:
        count = _forest_count(ag, shape, deadline)
        if count is not None:
            return count
    plan = _compile(ag, shape, deadline)
    if plan is None:
        return 0
    if not shape.exact:
        return len(set(chain.from_iterable(_slices(plan, shape.width, deadline))))
    return sum(size for size, _ in _levelwise(plan, shape.width, deadline))
