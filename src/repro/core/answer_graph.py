"""The answer-graph data structure.

An answer graph (AG) for a CQ is "a subset of the data graph G that
suffices to compute the embeddings for the CQ" (§2), factorized per
query edge: for every query edge the AG holds the set of data-graph
(subject, object) pairs that may participate in an embedding, plus the
per-variable candidate node sets.

Representation
--------------
Each materialized *relation* — a real query edge or a chord added by
the Triangulator — is an adjacency index, and can have two::

    forward(rel)[s] = {o, ...}      backward(rel)[o] = {s, ...}

A relation is registered with **one** of them, the direction its
extension walked, and phase 1 costs what it walks: the opposite index
is built the first time something asks for it, from what burnback has
left of the relation by then (on the paper's snowflakes ~15% of the
pairs walked). Anything holding the AG may trigger the build by calling
:meth:`AnswerGraph.forward`, :meth:`~AnswerGraph.backward` or
:meth:`~AnswerGraph.index` — node burnback for a small cascade batch,
chord joins, edge burnback, phase 2 — and passes the deadline the build
polls; the time lands in whichever phase asked. A reader that needs no
inverse does not cause one: sizes, pair iteration and
:meth:`~AnswerGraph.endpoints` work off whichever index exists, the
bucket sizes of a missing index are counted off the other one
(:meth:`~AnswerGraph.degrees`), and :meth:`~AnswerGraph.bucket` reads
one key's bucket of a live relation off the store.

Ownership: the AG owns its indexes and their value sets.
:meth:`~AnswerGraph.index` hands out the live dicts, and whoever removes
pairs from one must keep the other, if :meth:`~AnswerGraph.built`, in
step. A missing index is always the inversion of the one that exists
(:func:`repro.core.kernels.invert_adjacency`), so no index build reads
the store, and an AG that outlives a write to it still indexes what it
holds. Edge burnback, which removes single pairs, indexes both
directions of a side before it prunes.

Per-variable node sets are maintained as the invariant

    node_sets[v] = { n | n appears at v's position in EVERY
                         materialized relation incident to v }

which is exactly the state node burnback restores after each step.

``RelKey`` distinguishes real edges ``("e", edge_index)`` from chords
``("c", chord_index)``; only real edges count toward :attr:`size` (the
|AG| / |iAG| columns of Table 1 count labeled node pairs of the data
graph).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import AbstractSet, Iterator

from repro.core.kernels import Adjacency, invert_adjacency
from repro.errors import EvaluationError
from repro.query.algebra import BoundQuery
from repro.utils.deadline import Deadline

RelKey = tuple[str, int]  # ("e", edge index) | ("c", chord index)


class AnswerGraph:
    """Mutable answer-graph state for one bound query."""

    __slots__ = (
        "bound",
        "_fwd",
        "_bwd",
        "_live",
        "node_sets",
        "var_positions",
        "rel_vars",
        "materialized_order",
        "empty",
        "__weakref__",
    )

    def __init__(self, bound: BoundQuery):
        self.bound = bound
        #: rel -> the indexes built so far, at least one of the two per
        #: materialized relation. Two plain dicts that know nothing of
        #: each other: an AG dies by reference count.
        self._fwd: dict[RelKey, Adjacency] = {}
        self._bwd: dict[RelKey, Adjacency] = {}
        #: rel -> (predicate, its store epoch at registration) while the
        #: relation is all of that predicate between its endpoint sets
        self._live: dict[RelKey, tuple[int, int]] = {}
        #: var -> set of candidate nodes (absent = unconstrained so far)
        self.node_sets: dict[int, set[int]] = {}
        #: var -> [(rel, "s"|"o"), ...] over materialized relations
        self.var_positions: dict[int, list[tuple[RelKey, str]]] = {}
        #: rel -> (s_var | None, o_var | None)
        self.rel_vars: dict[RelKey, tuple[int | None, int | None]] = {}
        self.materialized_order: list[RelKey] = []
        #: set as soon as any relation materializes empty — the query
        #: provably has no embeddings and evaluation short-circuits.
        self.empty = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register_relation(
        self,
        rel: RelKey,
        s_var: int | None,
        o_var: int | None,
        *,
        forward: Adjacency | None = None,
        backward: Adjacency | None = None,
        predicate: int | None = None,
    ) -> None:
        """Materialize ``rel`` from ``forward`` (``{s: {o, ...}}``),
        ``backward`` (``{o: {s, ...}}``) or both — at least one.

        The AG **takes ownership** of the dicts and their value sets
        (burnback mutates them in place); kernels always hand over
        fresh containers. A direction not given is derived on first
        read, by inverting the other. ``predicate`` promises that the
        relation is every pair of that store predicate between its
        subjects and its objects (true of an extension that is not a
        self-join, never of a chord); only :meth:`bucket` uses it, to
        read one key's bucket off the store without building an index.

        Does *not* run burnback — callers (the generation driver)
        intersect node sets and cascade afterwards, because removal
        bookkeeping depends on which endpoints were already constrained.
        """
        if rel in self.rel_vars:
            raise EvaluationError(f"relation {rel} is already materialized")
        if forward is None and backward is None:
            raise EvaluationError(
                "register_relation needs forward=, backward= or both"
            )
        if forward is not None:
            self._fwd[rel] = forward
        if backward is not None:
            self._bwd[rel] = backward
        if predicate is not None:
            self._live[rel] = (predicate, self.bound.store.predicate_epoch(predicate))
        self.rel_vars[rel] = (s_var, o_var)
        self.materialized_order.append(rel)
        if s_var is not None:
            self.var_positions.setdefault(s_var, []).append((rel, "s"))
        if o_var is not None:
            # Also for a self-loop relation (s_var == o_var): one
            # traversal of the positions list must see both roles.
            self.var_positions.setdefault(o_var, []).append((rel, "o"))
        if not self._any_index(rel):
            self.empty = True

    def drop_relation(self, rel: RelKey) -> None:
        """Remove a materialized relation (used to discard chords after
        generation so phase 2 sees only real query edges)."""
        if rel not in self.rel_vars:
            return
        self._fwd.pop(rel, None)
        self._bwd.pop(rel, None)
        self._live.pop(rel, None)
        s_var, o_var = self.rel_vars.pop(rel)
        for var in {v for v in (s_var, o_var) if v is not None}:
            self.var_positions[var] = [
                entry for entry in self.var_positions[var] if entry[0] != rel
            ]
        self.materialized_order.remove(rel)

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------

    def forward(self, rel: RelKey, deadline: Deadline | None = None) -> Adjacency:
        """The live ``s -> {o}`` index of ``rel``, built if need be."""
        return self.index(rel, "s", deadline)

    def backward(self, rel: RelKey, deadline: Deadline | None = None) -> Adjacency:
        """The live ``o -> {s}`` index of ``rel``, built if need be."""
        return self.index(rel, "o", deadline)

    def index(
        self, rel: RelKey, pos: str, deadline: Deadline | None = None
    ) -> Adjacency:
        """The live index of ``rel`` keyed by its ``pos`` (``"s"`` or
        ``"o"``) endpoint. A first read of the direction the relation
        was not registered with inverts the other one as it is now,
        polling ``deadline``. ``KeyError`` for an unmaterialized ``rel``."""
        mine, other = (self._fwd, self._bwd) if pos == "s" else (self._bwd, self._fwd)
        adj = mine.get(rel)
        if adj is None:
            adj = mine[rel] = invert_adjacency(other[rel], deadline)
        return adj

    def built(self, rel: RelKey, pos: str) -> Adjacency | None:
        """:meth:`index` if it exists already, else ``None``."""
        return (self._fwd if pos == "s" else self._bwd).get(rel)

    def degrees(self, rel: RelKey, pos: str) -> Counter[int]:
        """Each key's bucket size in the ``pos``-keyed index of ``rel``,
        which is not :meth:`built`: one C-level ``Counter`` over the
        other index, no inverse built."""
        other = self._bwd if pos == "s" else self._fwd
        return Counter(chain.from_iterable(other[rel].values()))

    def bucket(self, rel: RelKey, pos: str, key: int) -> set[int] | None:
        """``key``'s bucket in the ``pos``-keyed index of ``rel`` without
        building that index, its nodes added in ascending order: the
        store's ``key`` neighbours that the other index pairs with
        ``key``, one store lookup whatever the relation's size. ``None``
        unless ``rel`` is live (only then does the store know its
        pairs)."""
        predicate = self._live_predicate(rel)
        if predicate is None:
            return None
        store = self.bound.store
        other = self._bwd[rel] if pos == "s" else self._fwd[rel]
        near = (store.successors if pos == "s" else store.predecessors)(predicate, key)
        found = near & other.keys()
        # A live relation pairs ``key`` with all of these or, once
        # burnback removed ``key``, with none.
        if found and key not in other[next(iter(found))]:
            return set()
        return set(sorted(found))

    def retire_live(self, rel: RelKey) -> None:
        """Pairs, not only whole nodes, left ``rel``: it is no longer
        all of its predicate between its endpoints, so :meth:`bucket`
        stops reading it off the store."""
        self._live.pop(rel, None)

    def _live_predicate(self, rel: RelKey) -> int | None:
        """``rel``'s predicate, if ``rel`` is still that predicate
        restricted to its endpoints and the predicate has not been
        written to since."""
        live = self._live.get(rel)
        if live is None:
            return None
        predicate, epoch = live
        if self.bound.store.predicate_epoch(predicate) != epoch:
            return None
        return predicate

    def _any_index(self, rel: RelKey) -> Adjacency:
        """Whichever index of ``rel`` exists ({} if unmaterialized)."""
        adj = self._fwd.get(rel)
        return adj if adj is not None else self._bwd.get(rel, {})

    def endpoints(self, rel: RelKey, pos: str) -> AbstractSet[int]:
        """The distinct nodes at ``rel``'s ``pos`` endpoint: the live
        key view of that index if built, else the union of the other
        index's value sets (no inverse is built for it)."""
        adj = self.built(rel, pos)
        if adj is not None:
            return adj.keys()
        return set().union(*self._any_index(rel).values())

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def pairs(self, rel: RelKey) -> Iterator[tuple[int, int]]:
        """Iterate the (s, o) pairs of a materialized relation."""
        adj = self._fwd.get(rel)
        if adj is not None:
            for s, objs in adj.items():
                for o in objs:
                    yield (s, o)
        else:
            for o, subs in self._bwd.get(rel, {}).items():
                for s in subs:
                    yield (s, o)

    def pair_set(self, rel: RelKey) -> set[tuple[int, int]]:
        """The (s, o) pairs of ``rel`` as a fresh set."""
        return set(self.pairs(rel))

    def relation_size(self, rel: RelKey) -> int:
        """Number of pairs currently in ``rel`` (0 if unmaterialized)."""
        return sum(map(len, self._any_index(rel).values()))

    def edge_pairs(self, edge_index: int) -> set[tuple[int, int]]:
        """The AG pairs of real query edge ``edge_index``."""
        return self.pair_set(("e", edge_index))

    @property
    def size(self) -> int:
        """|AG|: total labeled node pairs over *real* query edges.

        This is the quantity the paper reports in Table 1's |iAG| /
        |AG| columns.
        """
        return sum(
            self.relation_size(rel)
            for rel in self.rel_vars
            if rel[0] == "e"
        )

    def node_set(self, var: int) -> set[int]:
        """Candidate nodes for variable ``var`` (empty if burned out;
        raises if the variable was never constrained)."""
        try:
            return self.node_sets[var]
        except KeyError:
            raise EvaluationError(
                f"variable {var} has not been constrained by any "
                "materialized relation yet"
            ) from None

    def is_materialized(self, rel: RelKey) -> bool:
        """Whether ``rel`` has been registered in this AG."""
        return rel in self.rel_vars

    def relation_statistics(self) -> tuple[dict[int, int], dict[tuple[int, str], int]]:
        """(sizes, per-side distinct node counts) over real edges.

        This is "the available statistics from the answer graph phase"
        (§5) that the greedy embedding planner consumes.
        """
        sizes: dict[int, int] = {}
        node_counts: dict[tuple[int, str], int] = {}
        for rel in self.rel_vars:
            kind, idx = rel
            if kind != "e":
                continue
            sizes[idx] = self.relation_size(rel)
            node_counts[(idx, "s")] = len(self.endpoints(rel, "s"))
            node_counts[(idx, "o")] = len(self.endpoints(rel, "o"))
        return sizes, node_counts

    def snapshot(self) -> dict:
        """Deep-ish copy of the visible state (for tracing/tests)."""
        return {
            "pairs": {
                rel: self.pair_set(rel) for rel in self.materialized_order
            },
            "node_sets": {v: set(ns) for v, ns in self.node_sets.items()},
            "empty": self.empty,
        }

    def __repr__(self) -> str:
        rels = ", ".join(
            f"{rel[0]}{rel[1]}:{self.relation_size(rel)}"
            for rel in self.materialized_order
        )
        return f"AnswerGraph(size={self.size}, rels=[{rels}])"
