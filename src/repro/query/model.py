"""Conjunctive-query data model.

A SPARQL conjunctive query (CQ) is modeled exactly as the paper frames
it: a *query graph* whose nodes are binding variables and whose edges
are predicate labels to match. :class:`ConjunctiveQuery` is an immutable
surface-level object (predicates and constants are strings); binding it
against a concrete store happens in :mod:`repro.query.algebra`.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence, Union

from repro.errors import QueryError


class Var(NamedTuple):
    """A query variable, e.g. ``Var("x")`` for SPARQL's ``?x``."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


class Const(NamedTuple):
    """A ground term in subject or object position (surface string)."""

    term: str

    def __str__(self) -> str:
        return self.term


QueryTerm = Union[Var, Const]

#: Wire-schema version accepted by :meth:`ConjunctiveQuery.from_dict`.
#: Bumped only on a breaking change to the JSON layout; additive,
#: backward-compatible evolution keeps the number (the ``/v1`` HTTP API
#: is pinned to it).
WIRE_VERSION = 1


def _term_to_wire(term: QueryTerm) -> dict:
    """The tagged JSON form of one query term.

    Variables and constants are tagged explicitly (``{"var": "x"}`` /
    ``{"const": "Tom_Hanks"}``) instead of reusing the ``"?x"`` surface
    convention — a constant whose text happens to start with ``?`` must
    survive the round trip unambiguously.
    """
    if isinstance(term, Var):
        return {"var": term.name}
    return {"const": term.term}


def _term_from_wire(obj: object, where: str) -> QueryTerm:
    """Parse one tagged term dict; raises :class:`QueryError` on junk."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise QueryError(
            f"{where}: term must be a one-key dict "
            f'{{"var": name}} or {{"const": text}}, got {obj!r}'
        )
    (tag, value), = obj.items()
    if not isinstance(value, str):
        raise QueryError(f"{where}: term value must be a string, got {value!r}")
    if tag == "var":
        if not value:
            raise QueryError(f"{where}: variable name cannot be empty")
        return Var(value)
    if tag == "const":
        return Const(value)
    raise QueryError(f"{where}: unknown term tag {tag!r} (expected var/const)")


def _coerce_term(value: Union[QueryTerm, str]) -> QueryTerm:
    """Accept ``"?x"``-style strings as a convenience in constructors."""
    if isinstance(value, (Var, Const)):
        return value
    if isinstance(value, str):
        if value.startswith("?"):
            if len(value) == 1:
                raise QueryError("variable name cannot be empty")
            return Var(value[1:])
        return Const(value)
    raise QueryError(f"invalid query term: {value!r}")


class QueryEdge(NamedTuple):
    """One triple pattern ⟨subject, predicate-label, object⟩."""

    subject: QueryTerm
    predicate: str
    object: QueryTerm

    def variables(self) -> tuple[Var, ...]:
        """The variables this edge binds, in (subject, object) order."""
        out = []
        if isinstance(self.subject, Var):
            out.append(self.subject)
        if isinstance(self.object, Var):
            out.append(self.object)
        return tuple(out)

    def other_end(self, var: Var) -> QueryTerm:
        """The endpoint opposite ``var`` (which must be an endpoint)."""
        if self.subject == var:
            return self.object
        if self.object == var:
            return self.subject
        raise QueryError(f"{var} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"{self.subject} {self.predicate} {self.object}"


class ConjunctiveQuery:
    """An immutable conjunctive query over an edge-labeled graph.

    Parameters
    ----------
    edges:
        The triple patterns. Subject/object may be :class:`Var`,
        :class:`Const`, or strings (``"?x"`` parses as a variable,
        anything else as a constant).
    projection:
        Variables to return, in order. ``None`` (default) projects every
        variable in first-appearance order (SPARQL ``SELECT *``).
    distinct:
        Whether duplicate projected rows are collapsed. With full
        projection embeddings are already distinct; this matters only
        for proper projections.
    name:
        Optional human-readable label used in benchmark reports.
    """

    __slots__ = ("edges", "projection", "distinct", "name", "_var_order",
                 "_query_signature", "_plan_signature")

    def __init__(
        self,
        edges: Iterable[Union[QueryEdge, tuple]],
        projection: Sequence[Union[Var, str]] | None = None,
        distinct: bool = False,
        name: str | None = None,
    ):
        normalized = []
        for edge in edges:
            if isinstance(edge, QueryEdge):
                s, p, o = edge
            else:
                s, p, o = edge
            if not isinstance(p, str) or not p:
                raise QueryError(f"predicate must be a non-empty string, got {p!r}")
            normalized.append(QueryEdge(_coerce_term(s), p, _coerce_term(o)))
        if not normalized:
            raise QueryError("a conjunctive query must have at least one edge")
        self.edges: tuple[QueryEdge, ...] = tuple(normalized)

        order: list[Var] = []
        seen: set[Var] = set()
        for edge in self.edges:
            for var in edge.variables():
                if var not in seen:
                    seen.add(var)
                    order.append(var)
        self._var_order: tuple[Var, ...] = tuple(order)
        if not order:
            raise QueryError("a conjunctive query must bind at least one variable")

        if projection is None:
            proj = self._var_order
        else:
            proj_list = []
            for v in projection:
                var = _coerce_term(v) if isinstance(v, str) else v
                if not isinstance(var, Var):
                    raise QueryError(f"projection must contain variables, got {v!r}")
                if var not in seen:
                    raise QueryError(f"projected variable {var} not used in any edge")
                proj_list.append(var)
            if not proj_list:
                raise QueryError("projection cannot be empty")
            proj = tuple(proj_list)
        self.projection: tuple[Var, ...] = proj
        self.distinct = bool(distinct)
        self.name = name
        # Filled by repro.service.signature: the query is immutable, so
        # its canonical signatures are computed at most once per object.
        self._query_signature: tuple | None = None
        self._plan_signature: tuple | None = None

    # ------------------------------------------------------------------
    # Query-graph structure
    # ------------------------------------------------------------------

    @property
    def variables(self) -> tuple[Var, ...]:
        """All variables in first-appearance order."""
        return self._var_order

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> dict[Var, list[int]]:
        """Map each variable to the indexes of its incident edges."""
        adj: dict[Var, list[int]] = {v: [] for v in self._var_order}
        for i, edge in enumerate(self.edges):
            for var in edge.variables():
                adj[var].append(i)
        return adj

    def edge_endpoints(self, edge_index: int) -> tuple[Var, ...]:
        """The variables of edge ``edge_index`` (0, 1, or 2 of them)."""
        return self.edges[edge_index].variables()

    def edges_between(self, u: Var, v: Var) -> list[int]:
        """Indexes of edges whose endpoint set is exactly {u, v}."""
        out = []
        for i, edge in enumerate(self.edges):
            vars_ = set(edge.variables())
            if vars_ == {u, v}:
                out.append(i)
        return out

    def is_connected(self) -> bool:
        """Whether the query graph is connected.

        Edges join through shared variables or shared ground terms
        (``?x A k . k B ?z`` is connected through the constant ``k``).
        """
        if len(self.edges) == 1:
            return True
        # Edge-connectivity: every edge must be reachable from edge 0 by
        # walking shared terms.
        edge_terms: list[set[QueryTerm]] = [
            {e.subject, e.object} for e in self.edges
        ]
        adj: dict[QueryTerm, list[int]] = {}
        for i, terms in enumerate(edge_terms):
            for term in terms:
                adj.setdefault(term, []).append(i)
        seen_edges = {0}
        frontier = [0]
        while frontier:
            current = frontier.pop()
            for term in edge_terms[current]:
                for j in adj[term]:
                    if j not in seen_edges:
                        seen_edges.add(j)
                        frontier.append(j)
        return len(seen_edges) == len(self.edges)

    def validate(self) -> None:
        """Raise :class:`QueryError` if the query is not evaluable.

        Engines in this library require connected queries (the paper's
        planner produces connected left-deep prefixes; cross products
        are out of scope for CQs over a single graph pattern).
        """
        if not self.is_connected():
            raise QueryError(
                f"query {self.name or ''} is disconnected; "
                "engines require a connected query graph"
            )

    # ------------------------------------------------------------------
    # Canonical wire form (JSON-safe, round-trippable)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """The canonical JSON-safe wire form of this query (schema v1).

        This single form is what ``POST /v1/query`` accepts, what
        ``repro query --json`` echoes, and what :meth:`from_dict`
        parses — every value is a JSON scalar, list, or dict, and
        ``from_dict(q.to_dict()) == q`` holds for every constructible
        query (property-tested). The projection is always written out
        explicitly, so the wire form never depends on the reader
        recomputing first-appearance order.
        """
        doc: dict = {
            "version": WIRE_VERSION,
            "edges": [
                {
                    "s": _term_to_wire(e.subject),
                    "p": e.predicate,
                    "o": _term_to_wire(e.object),
                }
                for e in self.edges
            ],
            "projection": [v.name for v in self.projection],
            "distinct": self.distinct,
        }
        if self.name is not None:
            doc["name"] = self.name
        return doc

    _WIRE_FIELDS = frozenset({"version", "edges", "projection", "distinct", "name"})

    @classmethod
    def from_dict(cls, doc: object) -> "ConjunctiveQuery":
        """Parse the canonical wire form written by :meth:`to_dict`.

        Validation is strict — wrong shapes, wrong types, a missing
        ``edges`` list, and *unknown fields* all raise
        :class:`~repro.errors.QueryError` (the HTTP layer maps that to
        a 400 rather than silently ignoring a misspelled field). An
        absent ``version`` is read as the current schema; any other
        version than :data:`WIRE_VERSION` is rejected.
        """
        if not isinstance(doc, dict):
            raise QueryError(f"query document must be a JSON object, got {doc!r}")
        unknown = set(doc) - cls._WIRE_FIELDS
        if unknown:
            raise QueryError(
                f"unknown query field(s): {', '.join(sorted(map(str, unknown)))}"
            )
        version = doc.get("version", WIRE_VERSION)
        if version != WIRE_VERSION:
            raise QueryError(
                f"unsupported query wire version {version!r} "
                f"(this build speaks version {WIRE_VERSION})"
            )
        edges_doc = doc.get("edges")
        if not isinstance(edges_doc, list) or not edges_doc:
            raise QueryError("'edges' must be a non-empty list of edge objects")
        edges = []
        for i, edge in enumerate(edges_doc):
            where = f"edges[{i}]"
            if not isinstance(edge, dict) or set(edge) != {"s", "p", "o"}:
                raise QueryError(
                    f"{where}: edge must be a dict with exactly s/p/o keys, "
                    f"got {edge!r}"
                )
            predicate = edge["p"]
            if not isinstance(predicate, str) or not predicate:
                raise QueryError(
                    f"{where}: predicate must be a non-empty string, "
                    f"got {predicate!r}"
                )
            edges.append(
                QueryEdge(
                    _term_from_wire(edge["s"], f"{where}.s"),
                    predicate,
                    _term_from_wire(edge["o"], f"{where}.o"),
                )
            )
        projection_doc = doc.get("projection")
        projection: tuple[Var, ...] | None
        if projection_doc is None:
            projection = None
        else:
            if not isinstance(projection_doc, list) or not all(
                isinstance(v, str) and v for v in projection_doc
            ):
                raise QueryError(
                    "'projection' must be a list of non-empty variable names"
                )
            projection = tuple(Var(v) for v in projection_doc)
        distinct = doc.get("distinct", False)
        if not isinstance(distinct, bool):
            raise QueryError(f"'distinct' must be a boolean, got {distinct!r}")
        name = doc.get("name")
        if name is not None and not isinstance(name, str):
            raise QueryError(f"'name' must be a string, got {name!r}")
        return cls(edges, projection=projection, distinct=distinct, name=name)

    # ------------------------------------------------------------------
    # Rendering / identity
    # ------------------------------------------------------------------

    def to_sparql(self) -> str:
        """Render back to SPARQL text (parsable by ``parse_sparql``)."""
        select = "select distinct" if self.distinct else "select"
        proj = ", ".join(str(v) for v in self.projection)
        body = "\n".join(f"  {e.subject} {e.predicate} {e.object} ." for e in self.edges)
        return f"{select} {proj} where {{\n{body}\n}}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return (
            self.edges == other.edges
            and self.projection == other.projection
            and self.distinct == other.distinct
        )

    def __hash__(self) -> int:
        return hash((self.edges, self.projection, self.distinct))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"ConjunctiveQuery({len(self.edges)} edges, "
            f"{len(self._var_order)} vars{label})"
        )
