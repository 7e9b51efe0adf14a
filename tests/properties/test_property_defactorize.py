"""Differential property of phase 2: defactorization computes the join
of the AG's edge relations — on any AG, along any connected order.

"Given the ideal answer graph and an acyclic CQ, the order in which we
join is immaterial" (§3). The skeleton/leaf executor makes the stronger
statement true: whichever variables an order turns into skeleton, leaves
or a pooled last variable, the row *multiset* is the brute-force
oracle's, under the query's own projection and DISTINCT/bag semantics,
and counting without building rows agrees with building them, as does
a limited head with the rows' head. The same holds with the chords of a
cyclic query kept in the AG, where each is one more skeleton join and a
cycle's apexes become pools that meet at several anchors.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.defactorize import (
    count_embeddings,
    first_embeddings,
    iter_embeddings,
    materialize_embeddings,
)
from repro.core.engine import WireframeEngine
from repro.core.generation import generate_answer_graph
from repro.core.ideal import enumerate_embeddings_bruteforce
from repro.planner.plan import validate_connected_order
from repro.query.algebra import bind_query
from repro.query.model import ConjunctiveQuery

from tests.properties.strategies import (
    PHASE2_SHAPES,
    build_store,
    edge_lists,
    projected_queries,
)

#: Fig. 1's graph in :func:`edge_lists` form (12 embeddings of the chain).
FIGURE1 = {
    "A": [(1, 5), (2, 5), (3, 5), (4, 6)],
    "B": [(5, 9), (6, 10), (7, 11)],
    "C": [(9, 12), (9, 13), (9, 14), (9, 15), (8, 15)],
}
FIGURE1_CHAIN = ConjunctiveQuery([("?w", "A", "?x"), ("?x", "B", "?y"), ("?y", "C", "?z")])
#: Parallel edges: the second closes a 2-cycle, so it is intersected.
PARALLEL = {"A": [(1, 2), (3, 4)], "B": [(1, 2)]}
PARALLEL_PAIR = ConjunctiveQuery([("?x", "A", "?y"), ("?x", "B", "?y")])


def connected_orders(bound):
    tokens = [edge.term_tokens() for edge in bound.edges]
    for order in itertools.permutations(range(len(tokens))):
        try:
            validate_connected_order(order, tokens)
        except ValueError:
            continue
        yield order


def projected(bound, embeddings) -> Counter:
    rows = [tuple(emb[v] for v in bound.projection) for emb in embeddings]
    return Counter(set(rows) if bound.distinct else rows)


def assert_every_order_agrees(ag, embeddings) -> None:
    expected_rows = projected(ag.bound, embeddings)
    expected_embeddings = Counter(embeddings)
    for order in connected_orders(ag.bound):
        # Count and heads first, while the indexes phase 1 left unbuilt
        # are still unbuilt.
        n = count_embeddings(ag, order)
        heads = {k: first_embeddings(ag, k, order) for k in {0, 1, n // 2, n, n + 1}}
        assert Counter(iter_embeddings(ag, order)) == expected_embeddings, order
        rows = materialize_embeddings(ag, order)
        assert Counter(rows) == expected_rows, order
        assert n == len(rows), order
        for k, head in heads.items():
            assert head == (rows[:k], n), (order, k)


def empty_subject(ag, edge_index: int, subject: int) -> None:
    """Remove every pair ``(subject, *)`` of one AG relation, leaving
    the emptied sets in place and the node sets stale — the state no
    burnback would leave behind."""
    rel = ("e", edge_index)
    forward, backward = ag.forward(rel), ag.backward(rel)
    for obj in forward[subject]:
        backward[obj].discard(subject)
    forward[subject].clear()


def check(graph, query, victim: int, keep_chords: bool = False) -> int:
    """Every order on the generated AG, then on a non-ideal one;
    returns the number of embeddings. ``keep_chords`` keeps a cyclic
    query's chords in the AG, as the engine's phase 2 sees it."""
    store = build_store(graph)
    engine = WireframeEngine(store)
    detail = engine.evaluate_detailed(query, materialize=False)
    ag, bound = detail.answer_graph, detail.answer_graph.bound
    if keep_chords:
        bound, plan, chordification = engine.plan(query)
        ag, _ = generate_answer_graph(
            bound, plan, chordification=chordification, keep_chords=True
        )
        assert ag.size == detail.ag_size
    embeddings = enumerate_embeddings_bruteforce(store, bound)
    assert detail.count == sum(projected(bound, embeddings).values())
    assert_every_order_agrees(ag, embeddings)

    # A non-ideal AG: what the emptied relation no longer supports
    # yields no row, and nothing raises.
    if ag.empty:
        return 0
    edge = bound.edges[victim % len(bound.edges)]
    subjects = sorted(ag.forward(("e", edge.index)))
    subject = subjects[victim % len(subjects)]
    empty_subject(ag, edge.index, subject)
    survivors = [
        emb for emb in embeddings
        if (edge.s_const if edge.s_var is None else emb[edge.s_var]) != subject
    ]
    assert_every_order_agrees(ag, survivors)
    return len(embeddings)


@pytest.mark.parametrize("shape", PHASE2_SHAPES.values(), ids=PHASE2_SHAPES.keys())
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_rows_equal_the_oracle_along_every_connected_order(shape, data):
    graph = data.draw(edge_lists(max_nodes=6, max_edges_per_label=12))
    query = data.draw(projected_queries(shape))
    # A constant the store has never seen binds to nothing and takes
    # the edge's join token with it: the planners then (rightly) see a
    # disconnected query, which is not phase 2's business.
    assume(
        all(
            (e.s_var, e.s_const) != (None, None) and (e.o_var, e.o_const) != (None, None)
            for e in bind_query(query, build_store(graph)).edges
        )
    )
    check(graph, query, data.draw(st.integers(min_value=0, max_value=10**6)))


@pytest.mark.parametrize(
    "graph, query, embeddings",
    [(FIGURE1, FIGURE1_CHAIN, 12), (PARALLEL, PARALLEL_PAIR, 1)],
    ids=["figure1-chain", "parallel-pair"],
)
def test_fixed_examples(graph, query, embeddings):
    assert check(graph, query, victim=0) == embeddings


#: The cyclic shapes, and a 5-cycle: two chords, the second built over
#: the first.
CHORDED_SHAPES = {
    name: PHASE2_SHAPES[name] for name in ("3-cycle", "4-cycle", "diamond-with-pendant-leaves")
}
CHORDED_SHAPES["5-cycle"] = (
    ("?a", 0, "?b"), ("?b", 1, "?c"), ("?c", 2, "?d"), ("?d", 3, "?e"), ("?a", 0, "?e"),
)


@pytest.mark.parametrize("shape", CHORDED_SHAPES.values(), ids=CHORDED_SHAPES.keys())
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_rows_through_kept_chords_equal_the_oracle(shape, data):
    graph = data.draw(edge_lists(max_nodes=6, max_edges_per_label=12))
    query = data.draw(projected_queries(shape))
    check(graph, query, data.draw(st.integers(min_value=0, max_value=10**6)), keep_chords=True)
