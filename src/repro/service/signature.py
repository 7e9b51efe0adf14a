"""Canonical, alpha-invariant signatures for conjunctive queries.

Two queries that differ only in how their variables are *named* — e.g.
``?x actedIn ?m`` and ``?actor actedIn ?movie`` — bind to identical
integer programs and produce identical plans and results. The service's
plan and result caches therefore key on a *signature* that renames
variables to their first-appearance index, making alpha-equivalent
queries collide on purpose.

Edge order is preserved (not sorted): an
:class:`~repro.planner.plan.AGPlan` refers to edges positionally, so a
cached plan is only valid for queries whose edge list lines up
index-for-index. Queries that are equivalent only after permuting edges
get distinct signatures and plan independently — a deliberate trade of
hit rate for correctness.

A :class:`~repro.query.model.ConjunctiveQuery` is immutable, so both
signatures are memoized on the query object: a request the HTTP front
end parsed once and keeps sharing is signed once.
"""

from __future__ import annotations

from repro.query.model import ConjunctiveQuery, Var

#: Signature type: nested tuples of ints/strings, hashable.
QuerySignature = tuple


def query_signature(query: ConjunctiveQuery) -> QuerySignature:
    """A hashable canonical form of ``query``, invariant under renaming.

    The signature captures everything that determines the bound integer
    program: each edge as ``(subject token, predicate, object token)``
    with variables replaced by dense first-appearance indexes, the
    projection as variable indexes, and the DISTINCT flag.

    >>> from repro.query.parser import parse_sparql
    >>> a = parse_sparql("select ?x where { ?x knows ?y . ?y knows ?x }")
    >>> b = parse_sparql("select ?u where { ?u knows ?v . ?v knows ?u }")
    >>> query_signature(a) == query_signature(b)
    True
    """
    signature = query._query_signature
    if signature is not None:
        return signature
    var_index = {v: i for i, v in enumerate(query.variables)}

    def token(term) -> tuple:
        if isinstance(term, Var):
            return ("v", var_index[term])
        return ("c", term.term)

    edges = tuple(
        (token(edge.subject), edge.predicate, token(edge.object))
        for edge in query.edges
    )
    projection = tuple(var_index[v] for v in query.projection)
    signature = query._query_signature = (edges, projection, query.distinct)
    return signature


def plan_signature(query: ConjunctiveQuery) -> QuerySignature:
    """A structural key under which cached *plans* may be shared.

    Plans (edge order + chords) stay **correct** for any query with the
    same join structure and predicates: constants only steer cost
    estimates, never validity. So here constants are canonicalized like
    variables — replaced by their first-appearance index — which keeps
    the constant-*sharing* pattern (a repeated constant joins two edges,
    so it must stay distinguishable) while letting "the same query about
    a different entity" reuse one plan. Projection and DISTINCT do not
    influence phase-1 planning and are excluded.

    >>> from repro.query.parser import parse_sparql
    >>> a = parse_sparql("select ?x where { ?x actedIn Movie1 }")
    >>> b = parse_sparql("select ?y where { ?y actedIn Movie2 }")
    >>> plan_signature(a) == plan_signature(b)
    True
    >>> query_signature(a) == query_signature(b)
    False
    """
    signature = query._plan_signature
    if signature is not None:
        return signature
    var_index = {v: i for i, v in enumerate(query.variables)}
    const_index: dict[str, int] = {}

    def token(term) -> tuple:
        if isinstance(term, Var):
            return ("v", var_index[term])
        if term.term not in const_index:
            const_index[term.term] = len(const_index)
        return ("c", const_index[term.term])

    signature = query._plan_signature = tuple(
        (token(edge.subject), edge.predicate, token(edge.object))
        for edge in query.edges
    )
    return signature
