"""Binding a surface-level CQ against a concrete triple store.

Engines never touch strings: before evaluation a
:class:`~repro.query.model.ConjunctiveQuery` is *bound* against a
store's dictionary, producing a :class:`BoundQuery` whose predicates and
constants are integer ids and whose variables are dense indexes
``0..num_vars-1`` (first-appearance order, matching
``ConjunctiveQuery.variables``).

A term that does not occur in the store's dictionary cannot match
anything; binding keeps it as ``None`` and every engine treats such an
edge as an empty relation (the query then has zero embeddings). This is
important for the query miner, which probes many label combinations.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.graph.store import TripleStore
from repro.query.model import ConjunctiveQuery, Var


class BoundEdge(NamedTuple):
    """One integer-encoded triple pattern.

    Exactly one of ``s_var`` / ``s_const`` is non-``None`` unless the
    subject term is a constant unknown to the dictionary, in which case
    both are ``None`` (same for objects). ``p`` is ``None`` when the
    predicate label does not occur in the data.
    """

    index: int
    s_var: int | None
    s_const: int | None
    p: int | None
    o_var: int | None
    o_const: int | None

    @property
    def satisfiable(self) -> bool:
        """False when a constant/predicate cannot exist in the store."""
        if self.p is None:
            return False
        if self.s_var is None and self.s_const is None:
            return False
        if self.o_var is None and self.o_const is None:
            return False
        return True

    def var_set(self) -> frozenset[int]:
        out = []
        if self.s_var is not None:
            out.append(self.s_var)
        if self.o_var is not None:
            out.append(self.o_var)
        return frozenset(out)

    def term_tokens(self) -> frozenset[tuple[str, int]]:
        """Join tokens for connectivity checks.

        Two edges are joinable when they share a variable *or* a ground
        term (e.g. ``?x A k . k B ?z`` joins through the constant
        ``k``). Variables become ``("v", index)`` tokens, constants
        ``("c", id)``, and a constant the store does not know
        ``("c", None)``: it matches nothing, so the edges it joins have
        no embedding in any order, and the query stays as connected as
        its text (which :meth:`ConjunctiveQuery.validate` checks).
        """
        return frozenset((
            ("v", self.s_var) if self.s_var is not None else ("c", self.s_const),
            ("v", self.o_var) if self.o_var is not None else ("c", self.o_const),
        ))


class BoundQuery(NamedTuple):
    """A CQ with all terms resolved against one store."""

    query: ConjunctiveQuery
    store: TripleStore
    edges: tuple[BoundEdge, ...]
    var_names: tuple[str, ...]
    projection: tuple[int, ...]
    distinct: bool

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def satisfiable(self) -> bool:
        """Whether every edge could in principle match something."""
        return all(e.satisfiable for e in self.edges)

    def var_index(self, var: Var | str) -> int:
        """The dense index of ``var`` (accepts ``Var``, ``\"?x\"``, or ``\"x\"``)."""
        name = var.name if isinstance(var, Var) else var.lstrip("?")
        return self.var_names.index(name)

    def edges_of_var(self, var: int) -> list[BoundEdge]:
        """All bound edges in which variable ``var`` occurs."""
        return [e for e in self.edges if var in (e.s_var, e.o_var)]


def bind_query(query: ConjunctiveQuery, store: TripleStore) -> BoundQuery:
    """Resolve ``query``'s labels and constants against ``store``.

    Variables become dense indexes in first-appearance order. Unknown
    predicates/constants bind to ``None`` (unsatisfiable edge) rather
    than raising, so that callers can uniformly evaluate to an empty
    result.
    """
    lookup = store.dictionary.lookup
    var_index = {v: i for i, v in enumerate(query.variables)}
    bound_edges = []
    for i, edge in enumerate(query.edges):
        if isinstance(edge.subject, Var):
            s_var, s_const = var_index[edge.subject], None
        else:
            s_var, s_const = None, lookup(edge.subject.term)
        if isinstance(edge.object, Var):
            o_var, o_const = var_index[edge.object], None
        else:
            o_var, o_const = None, lookup(edge.object.term)
        p = lookup(edge.predicate)
        bound_edges.append(BoundEdge(i, s_var, s_const, p, o_var, o_const))
    projection = tuple(var_index[v] for v in query.projection)
    var_names = tuple(v.name for v in query.variables)
    return BoundQuery(
        query=query,
        store=store,
        edges=tuple(bound_edges),
        var_names=var_names,
        projection=projection,
        distinct=query.distinct,
    )
