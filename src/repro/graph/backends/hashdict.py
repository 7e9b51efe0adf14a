"""The dict-of-sets storage backend (the original physical layout).

Primary indexes are predicate-first nested hash maps — PSO
(``{p: {s: {o, ...}}}``) and POS — because every edge of a conjunctive
query in this paper carries a fixed predicate label. The query miner's
node-first reads go through SPO and OPS, which the shared
:class:`~repro.graph.backends.permutations.LazyPermutations` rebuilds
from :meth:`HashDictBackend.triples` on the first read after a write.
One lock covers every write, the node-set settling in
:meth:`HashDictBackend.nodes`, :meth:`HashDictBackend.label_degrees`
and those builds; every other read takes none.

All views hand back the live ``dict`` / ``set`` containers without
copying; callers must not mutate them.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Iterator

from repro.graph.backends.base import StorageBackend
from repro.graph.backends.permutations import LazyPermutations, nested_index_bytes
from repro.graph.triples import Triple

_EMPTY_SET: set[int] = set()
_EMPTY_DICT: dict = {}

#: Nodes per comprehension chunk in :meth:`HashDictBackend.gather`:
#: within a chunk the work is C-level dict/set algebra, and the deadline
#: is polled once between chunks.
NODE_BLOCK = 1024


class HashDictBackend(StorageBackend):
    """Triples as nested ``dict``-of-``set`` hash indexes."""

    name = "hashdict"

    def __init__(self) -> None:
        self._pso: dict[int, dict[int, set[int]]] = {}
        self._pos: dict[int, dict[int, set[int]]] = {}
        self._perms = LazyPermutations()
        # Reentrant: nodes() settles removals through label_degrees().
        self._lock = threading.RLock()
        self._size = 0
        self._nodes: set[int] = set()
        #: Endpoints a removal may have orphaned; resolved by nodes().
        self._maybe_gone: set[int] = set()
        self._epoch = 0
        self._pred_epoch: defaultdict[int, int] = defaultdict(int)

    # -- construction ---------------------------------------------------

    def add(self, s: int, p: int, o: int) -> bool:
        # A node-first build scans under the same lock, so it never
        # sees half-inserted state.
        with self._lock:
            return self._add_locked(s, p, o)

    def add_many(self, triples, applied=None) -> int:
        # One lock acquisition per batch, not per triple — the
        # per-insert RLock otherwise costs ~20% of a bulk load.
        added = 0
        with self._lock:
            for s, p, o in triples:
                if self._add_locked(s, p, o):
                    added += 1
                    if applied is not None:
                        applied.append((s, p, o, 1))
        return added

    def _add_locked(self, s: int, p: int, o: int) -> bool:
        by_s = self._pso.setdefault(p, {})
        objs = by_s.setdefault(s, set())
        if o in objs:
            return False
        objs.add(o)
        self._pos.setdefault(p, {}).setdefault(o, set()).add(s)
        self._size += 1
        self._epoch += 1
        self._pred_epoch[p] += 1
        self._nodes.add(s)
        self._nodes.add(o)
        return True

    def remove(self, s: int, p: int, o: int) -> bool:
        with self._lock:
            return self._remove_locked(s, p, o)

    def remove_many(self, triples, applied=None) -> int:
        removed = 0
        with self._lock:
            for s, p, o in triples:
                if self._remove_locked(s, p, o):
                    removed += 1
                    if applied is not None:
                        applied.append((s, p, o, -1))
        return removed

    def _remove_locked(self, s: int, p: int, o: int) -> bool:
        by_s = self._pso.get(p)
        if by_s is None:
            return False
        objs = by_s.get(s)
        if objs is None or o not in objs:
            return False
        objs.discard(o)
        if not objs:
            del by_s[s]
            if not by_s:
                del self._pso[p]
            # Its last p-edge this way round: s may still appear under
            # another label or as an object; nodes() decides.
            self._maybe_gone.add(s)
        by_o = self._pos[p]
        subs = by_o[o]
        subs.discard(s)
        if not subs:
            del by_o[o]
            if not by_o:
                del self._pos[p]
            self._maybe_gone.add(o)
        self._size -= 1
        self._epoch += 1
        self._pred_epoch[p] += 1
        return True

    def freeze(self) -> None:
        """No compaction step: hash indexes are already final."""

    # -- cardinalities --------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def num_triples(self) -> int:
        return self._size

    def predicate_epoch(self, p) -> int:
        return self._pred_epoch.get(p, 0)

    def nodes(self) -> set[int]:
        if self._maybe_gone:
            # Only the endpoints a removal left without a p-run can have
            # dropped out; probe the per-predicate key sets for just
            # those instead of rescanning the store.
            with self._lock:
                for n, (outs, ins) in self.label_degrees(self._maybe_gone).items():
                    if not outs and not ins:
                        self._nodes.discard(n)
                self._maybe_gone = set()
        return self._nodes

    def predicates(self) -> list[int]:
        with self._lock:
            return sorted(self._pso)

    def contains(self, s: int, p: int, o: int) -> bool:
        by_s = self._pso.get(p)
        if by_s is None:
            return False
        objs = by_s.get(s)
        return objs is not None and o in objs

    # -- predicate-first navigation -------------------------------------

    def successors(self, p: int, s: int) -> set[int]:
        by_s = self._pso.get(p)
        if by_s is None:
            return _EMPTY_SET
        return by_s.get(s, _EMPTY_SET)

    def predecessors(self, p: int, o: int) -> set[int]:
        by_o = self._pos.get(p)
        if by_o is None:
            return _EMPTY_SET
        return by_o.get(o, _EMPTY_SET)

    def edges(self, p: int) -> Iterator[tuple[int, int]]:
        for s, objs in self._pso.get(p, _EMPTY_DICT).items():
            for o in objs:
                yield (s, o)

    def count(self, p: int) -> int:
        return sum(len(objs) for objs in self._pso.get(p, _EMPTY_DICT).values())

    def label_degrees(self, nodes):
        with self._lock:
            return {
                n: (
                    {p: len(objs) for p, by_s in self._pso.items()
                     if (objs := by_s.get(n))},
                    {p: len(subs) for p, by_o in self._pos.items()
                     if (subs := by_o.get(n))},
                )
                for n in nodes
            }

    # -- bulk kernel views ----------------------------------------------

    def adjacency(self, p: int) -> dict[int, set[int]]:
        return self._pso.get(p, _EMPTY_DICT)

    def reverse_adjacency(self, p: int) -> dict[int, set[int]]:
        return self._pos.get(p, _EMPTY_DICT)

    def subject_set(self, p: int):
        return self._pso.get(p, _EMPTY_DICT).keys()

    def object_set(self, p: int):
        return self._pos.get(p, _EMPTY_DICT).keys()

    def gather(
        self, p, nodes, far_filters=(), *, reverse=False, self_join=False,
        deadline=None,
    ) -> tuple[dict[int, set[int]], int]:
        index = (self._pos if reverse else self._pso).get(p)
        if not index:
            return {}, 0
        if nodes is None and not far_filters and not self_join:
            # A plain label scan copies the index wholesale: one pass,
            # half the time of the chunks below on the same edges.
            walks = sum(map(len, index.values()))
            if deadline is not None:
                deadline.check_every(walks)
            return {n: set(far) for n, far in index.items()}, walks
        # The nodes that have a run and their runs, as two lists: probe
        # the smaller of ``nodes`` and the index.
        if nodes is None:
            near = list(index)
        elif len(nodes) > len(index):
            near = [n for n in index if n in nodes]
        else:
            near = [n for n in nodes if n in index]
        runs = list(map(index.__getitem__, near))
        out: dict[int, set[int]] = {}
        walks = 0
        first, rest = (far_filters[0], far_filters[1:]) if far_filters else (None, ())
        # Each chunk is one C-level pass (``set`` copy or intersection
        # per run); the deadline is polled once per chunk, before the
        # chunk is copied.
        for i in range(0, len(near), NODE_BLOCK):
            chunk = near[i : i + NODE_BLOCK]
            fars = runs[i : i + NODE_BLOCK]
            chunk_walks = sum(map(len, fars))
            walks += chunk_walks
            if deadline is not None:
                deadline.check_every(chunk_walks)
            if self_join:
                out.update(
                    {
                        n: {n}
                        for n, far in zip(chunk, fars)
                        if n in far and all(n in f for f in far_filters)
                    }
                )
            elif first is None:
                out.update(zip(chunk, map(set, fars)))
            # The run on the left: ``&`` answers in its left operand's
            # type, and a bucket must be a ``set`` whatever the filter.
            elif not rest:
                out.update(
                    {n: keep for n, far in zip(chunk, fars) if (keep := far & first)}
                )
            else:
                # Several filters: each bucket against one after
                # another, never filter against filter (a predicate's
                # subjects can dwarf everything this step walks).
                for n, far in zip(chunk, fars):
                    keep = far & first
                    for view in rest:
                        if not keep:
                            break
                        keep = keep & view
                    if keep:
                        out[n] = keep
        return out, walks

    # -- node-first navigation ------------------------------------------

    def triples(self) -> Iterator[Triple]:
        for p, by_s in self._pso.items():
            for s, objs in by_s.items():
                for o in objs:
                    yield Triple(s, p, o)

    def out_edges(self, s: int) -> dict[int, set[int]]:
        spo = self._perms.get("spo", self._epoch, self._lock, self.triples)
        return spo.get(s, _EMPTY_DICT)

    def in_edges(self, o: int) -> dict[int, set[int]]:
        ops = self._perms.get("ops", self._epoch, self._lock, self.triples)
        return ops.get(o, _EMPTY_DICT)

    # -- catalog & reporting --------------------------------------------

    def index_bytes(self) -> int:
        return (
            nested_index_bytes(self._pso)
            + nested_index_bytes(self._pos)
            + self._perms.index_bytes()
        )

    def __repr__(self) -> str:
        return f"HashDictBackend({self._size} triples, {len(self._pso)} predicates)"
