"""Shared hypothesis strategies for property-based tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.graph.store import TripleStore

LABELS = ("A", "B", "C", "D")


@st.composite
def edge_lists(draw, max_nodes: int = 8, max_edges_per_label: int = 10):
    """A random small labeled digraph as {label: [(s, o), ...]}."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    node = st.integers(min_value=0, max_value=n - 1)
    graph = {}
    for label in LABELS:
        pairs = draw(
            st.lists(
                st.tuples(node, node),
                min_size=0,
                max_size=max_edges_per_label,
                unique=True,
            )
        )
        graph[label] = pairs
    return graph


def adjacency_pairs(adj: dict) -> set[tuple[int, int]]:
    """The (key, value) pairs of a ``{key: {value, ...}}`` adjacency."""
    return {(x, y) for x, ys in adj.items() for y in ys}


def bulk_pairs(result) -> set[tuple[int, int]]:
    """The (s, o) pairs of a ``BulkExtension``; every direction the
    kernel returned must hold the same ones."""
    views = []
    if result.forward is not None:
        views.append(adjacency_pairs(result.forward))
    if result.backward is not None:
        views.append({(s, o) for o, s in adjacency_pairs(result.backward)})
    assert views and all(view == views[0] for view in views)
    return views[0]


def degree_table(store: TripleStore) -> dict:
    """``{(p, reverse): sorted (key, degree) pairs}`` over every
    predicate: the degree columns in a form that compares across
    backends (whose column order may differ)."""
    table = {}
    for p in store.predicates():
        for reverse in (False, True):
            keys, degrees = store.degree_columns(p, reverse)
            table[p, reverse] = sorted(zip(keys.tolist(), degrees.tolist()))
    return table


def build_store(graph: dict, backend: str | None = None) -> TripleStore:
    store = TripleStore(backend=backend)
    for label, pairs in graph.items():
        for s, o in pairs:
            store.add_term_triple(f"n{s}", label, f"n{o}")
    return store


#: Random connected acyclic query shapes over the LABELS alphabet,
#: expressed as edge tuples. Shapes: chains of length 2-4, stars, and
#: small trees — all guaranteed connected and acyclic by construction.
ACYCLIC_SHAPES = (
    (("?a", 0, "?b"), ("?b", 1, "?c")),
    (("?a", 0, "?b"), ("?b", 1, "?c"), ("?c", 2, "?d")),
    (("?a", 0, "?b"), ("?a", 1, "?c")),
    (("?a", 0, "?b"), ("?a", 1, "?c"), ("?a", 2, "?d")),
    (("?a", 0, "?b"), ("?b", 1, "?c"), ("?b", 2, "?d")),
    (("?b", 0, "?a"), ("?b", 1, "?c"), ("?c", 2, "?d")),
)

CYCLIC_SHAPES = (
    # triangle
    (("?a", 0, "?b"), ("?b", 1, "?c"), ("?a", 2, "?c")),
    # diamond
    (("?x", 0, "?e"), ("?x", 1, "?z"), ("?y", 2, "?e"), ("?y", 3, "?z")),
    # parallel pair
    (("?a", 0, "?b"), ("?a", 1, "?b")),
)


def _ground(draw, shape, labels):
    """``shape`` under ``labels`` with every variable but its first
    perhaps replaced throughout by a node constant — ``n0``/``n1`` as
    :func:`build_store` names them, or ``n99``, which no store has — and
    every label perhaps by one no store has. A replaced variable keeps
    its edges joined, through the shared constant."""
    variables = sorted({t for s, _, o in shape for t in (s, o)})
    term = {variables[0]: variables[0]}
    for var in variables[1:]:
        term[var] = draw(st.sampled_from((var, var, var, "n0", "n1", "n99")))
    labels = [draw(st.sampled_from((label,) * 5 + ("Z",))) for label in labels]
    return [(term[s], labels[slot], term[o]) for (s, slot, o) in shape]


@st.composite
def shaped_queries(draw, shapes, grounded: bool = False):
    """One of ``shapes`` under drawn labels; ``grounded`` also draws
    constant terms and unknown labels (see :func:`_ground`)."""
    from repro.query.model import ConjunctiveQuery

    shape = draw(st.sampled_from(shapes))
    labels = draw(
        st.lists(
            st.sampled_from(LABELS),
            min_size=len(shape),
            max_size=len(shape),
        )
    )
    if grounded:
        return ConjunctiveQuery(_ground(draw, shape, labels))
    return ConjunctiveQuery([(s, labels[slot], o) for (s, slot, o) in shape])


def acyclic_queries():
    return shaped_queries(ACYCLIC_SHAPES)


def cyclic_queries():
    return shaped_queries(CYCLIC_SHAPES)


#: Shapes for the phase-2 differential: every way defactorization
#: splits a query into skeleton, hanging leaves and a pooled last
#: variable. A slot picks one of four drawn labels; ``n0``/``n1`` are
#: node constants in :func:`build_store`'s naming.
PHASE2_SHAPES = {
    "single-edge": (("?a", 0, "?b"),),  # both variables of degree 1
    "chain": (("?a", 0, "?b"), ("?b", 1, "?c"), ("?c", 2, "?d")),
    "star": (("?a", 0, "?b"), ("?a", 1, "?c"), ("?a", 2, "?d")),
    "snowflake": (
        ("?a", 0, "?b"), ("?a", 1, "?c"), ("?b", 2, "?d"), ("?b", 3, "?e"), ("?c", 0, "?f"),
    ),
    "3-cycle": (("?a", 0, "?b"), ("?b", 1, "?c"), ("?a", 2, "?c")),
    "4-cycle": (("?a", 0, "?b"), ("?b", 1, "?c"), ("?c", 2, "?d"), ("?a", 3, "?d")),
    "diamond-with-pendant-leaves": (
        ("?x", 0, "?e"), ("?x", 1, "?z"), ("?y", 2, "?e"), ("?y", 3, "?z"),
        ("?x", 0, "?p"), ("?q", 1, "?y"),
    ),
    "self-loop": (("?a", 0, "?a"), ("?a", 1, "?b")),
    "parallel-pair": (("?a", 0, "?b"), ("?a", 1, "?b")),
    # two components joined only through a shared constant
    "shared-constant": (("?a", 0, "n0"), ("n0", 1, "?b")),
    "constant-endpoints": (("?a", 0, "?b"), ("?b", 1, "n1"), ("n0", 2, "?a")),
    # no variable, only a condition
    "ground-edge": (("?a", 0, "n0"), ("n0", 1, "n1")),
}


@st.composite
def projected_queries(draw, shape, alphabet=LABELS):
    """``shape`` (a value of :data:`PHASE2_SHAPES`) under labels drawn
    from ``alphabet`` and a drawn projection — full, partial, or
    repeating a variable — with and without DISTINCT."""
    from repro.query.model import ConjunctiveQuery

    labels = draw(st.lists(st.sampled_from(alphabet), min_size=4, max_size=4))
    edges = [(s, labels[slot], o) for (s, slot, o) in shape]
    variables = sorted({t for s, _, o in shape for t in (s, o) if t.startswith("?")})
    projection = draw(
        st.none()
        | st.lists(st.sampled_from(variables), min_size=1, max_size=len(variables))
    )
    return ConjunctiveQuery(edges, projection=projection, distinct=draw(st.booleans()))
