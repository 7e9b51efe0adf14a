"""Tests for defactorization (embedding generation from the AG)."""

import itertools
import time

import pytest

from repro.core import defactorize
from repro.core.defactorize import (
    count_embeddings,
    first_embeddings,
    iter_embeddings,
    materialize_embeddings,
)
from repro.core.answer_graph import AnswerGraph
from repro.core.generation import generate_answer_graph
from repro.core.ideal import enumerate_embeddings_bruteforce
from repro.datasets.motifs import figure1_graph, figure1_query
from repro.core.kernels import BLOCK
from repro.errors import EvaluationTimeout, PlanError
from repro.graph.builder import store_from_edges
from repro.graph.store import TripleStore
from repro.planner.plan import AGPlan
from repro.query.algebra import bind_query
from repro.query.model import ConjunctiveQuery
from repro.query.parser import parse_sparql
from repro.utils.deadline import Deadline


def make_ag(store, query, order=None):
    bound = bind_query(query, store)
    n = len(bound.edges)
    plan = AGPlan(tuple(order or range(n)), (0.0,) * n, 0.0)
    ag, _ = generate_answer_graph(bound, plan)
    return bound, ag


def test_fig1_embeddings_match_oracle():
    store = figure1_graph()
    bound, ag = make_ag(store, figure1_query())
    rows = sorted(iter_embeddings(ag))
    oracle = sorted(enumerate_embeddings_bruteforce(store, bound))
    assert rows == oracle
    assert len(rows) == 12


def test_materialize_full_projection():
    store = figure1_graph()
    bound, ag = make_ag(store, figure1_query())
    rows = materialize_embeddings(ag)
    assert len(rows) == 12
    assert all(len(r) == 4 for r in rows)


def test_projection_and_distinct():
    store = figure1_graph()
    q = parse_sparql("select distinct ?y where { ?w :A ?x . ?x :B ?y . ?y :C ?z }")
    bound, ag = make_ag(store, q)
    rows = materialize_embeddings(ag)
    assert rows == [(store.dictionary.lookup("9"),)]
    assert count_embeddings(ag) == 1


def test_projection_without_distinct_keeps_duplicates():
    store = figure1_graph()
    q = parse_sparql("select ?y where { ?w :A ?x . ?x :B ?y . ?y :C ?z }")
    bound, ag = make_ag(store, q)
    rows = materialize_embeddings(ag)
    assert len(rows) == 12  # one per embedding
    assert count_embeddings(ag) == 12


def test_limit(monkeypatch):
    store = figure1_graph()
    bound, ag = make_ag(store, figure1_query())
    assert first_embeddings(ag, 5) == (materialize_embeddings(ag)[:5], 12)
    assert first_embeddings(ag, 0) == ([], 12)
    # A limit inside one leaf product stops that product: exactly
    # ``limit`` rows are ever built, and the count is still exact.
    built = count_product_rows(monkeypatch)
    rows, count = first_embeddings(big_star_ag(), 7)
    assert (len(rows), count) == (7, FAN**3)
    assert len(built) == 7


def test_empty_ag_yields_nothing():
    store = store_from_edges({"A": [("1", "2")], "B": [("8", "9")]})
    bound, ag = make_ag(
        store, parse_sparql("select * where { ?x A ?y . ?y B ?z }")
    )
    assert ag.empty
    assert list(iter_embeddings(ag)) == []
    assert count_embeddings(ag) == 0
    assert materialize_embeddings(ag) == []


def test_constant_endpoints():
    store = store_from_edges({"A": [("1", "2"), ("3", "2")], "B": [("2", "5")]})
    q = parse_sparql("select * where { ?x A 2 . 2 B ?z }")
    bound, ag = make_ag(store, q)
    rows = sorted(iter_embeddings(ag))
    d = store.dictionary.lookup
    assert rows == sorted([(d("1"), d("5")), (d("3"), d("5"))])


def test_self_loop_defactorization():
    store = store_from_edges({"A": [("1", "1"), ("2", "3")], "B": [("1", "4")]})
    q = parse_sparql("select * where { ?x A ?x . ?x B ?y }")
    bound, ag = make_ag(store, q)
    d = store.dictionary.lookup
    assert list(iter_embeddings(ag)) == [(d("1"), d("4"))]


def test_incomplete_order_rejected():
    store = figure1_graph()
    bound, ag = make_ag(store, figure1_query())
    with pytest.raises(PlanError):
        list(iter_embeddings(ag, (0, 1)))


def test_iterator_is_lazy():
    store = figure1_graph()
    bound, ag = make_ag(store, figure1_query())
    it = iter_embeddings(ag)
    first = next(it)
    assert len(first) == 4


# ----------------------------------------------------------------------
# One skeleton assignment, 8M rows: a star whose three leaves each have
# FAN values at the single centre.
# ----------------------------------------------------------------------

FAN = 200


def big_star_ag():
    store = store_from_edges(
        {label: [("hub", f"{label}{i}") for i in range(FAN)] for label in "ABC"}
    )
    query = ConjunctiveQuery([("?x", "A", "?a"), ("?x", "B", "?b"), ("?x", "C", "?c")])
    return make_ag(store, query)[1]


def count_product_rows(monkeypatch) -> list:
    """Route the module's ``product`` through Python so every row it
    builds is seen; returns the list the rows are logged to."""
    built = []

    def logging_product(*pools):
        for row in itertools.product(*pools):
            built.append(row)
            yield row

    monkeypatch.setattr(defactorize, "product", logging_product)
    return built


def test_first_row_does_not_enumerate_the_product(monkeypatch):
    built = count_product_rows(monkeypatch)
    first = next(iter_embeddings(big_star_ag()))
    assert len(first) == 4
    assert len(built) == 1


def test_count_multiplies_pool_sizes_without_building_rows(monkeypatch):
    def no_rows(*pools):
        raise AssertionError("count_embeddings built rows")

    monkeypatch.setattr(defactorize, "product", no_rows)
    assert count_embeddings(big_star_ag()) == FAN**3


def test_deadline_interrupts_one_huge_product():
    ag = big_star_ag()
    started = time.perf_counter()
    with pytest.raises(EvaluationTimeout):
        materialize_embeddings(ag, deadline=Deadline(0.05))
    # Building all 8M rows takes seconds; the poll between BLOCK-row
    # slices stops within one slice of the budget.
    assert time.perf_counter() - started < 1.0


def test_deadline_overshoot_is_one_block(monkeypatch):
    built = count_product_rows(monkeypatch)
    deadline = Deadline(1e-6)
    time.sleep(1e-3)  # already expired when enumeration starts
    with pytest.raises(EvaluationTimeout):
        for _ in iter_embeddings(big_star_ag(), deadline=deadline):
            pass
    assert len(built) <= BLOCK


def test_the_count_polls_the_deadline():
    ag = big_star_ag()
    deadline = Deadline(1e-6, stride=1)
    time.sleep(1e-3)  # already expired when counting starts
    with pytest.raises(EvaluationTimeout):
        count_embeddings(ag, deadline=deadline)


# ----------------------------------------------------------------------
# Counting and a limited head build no inverse index
# ----------------------------------------------------------------------


def one_way_ag(store, query):
    """An AG holding every pair of each edge's predicate, registered
    object-keyed only (as a phase 1 that walked every edge backwards
    would leave it), with consistent node sets."""
    bound = bind_query(query, store)
    ag = AnswerGraph(bound)
    for e in bound.edges:
        backward = {}
        for s, o in store.edges(e.p):
            backward.setdefault(o, set()).add(s)
        ag.register_relation(
            ("e", e.index), e.s_var, e.o_var, backward=backward, predicate=e.p
        )
        for var, nodes in ((e.s_var, set().union(*backward.values())), (e.o_var, set(backward))):
            ag.node_sets[var] = ag.node_sets.get(var, nodes) & nodes
    return ag


STAR = {"A": [("hub", "a1"), ("hub", "a2"), ("x2", "a3")],
        "B": [("hub", "b1"), ("hub", "b2"), ("hub", "b3"), ("x2", "b4")]}
STAR_QUERY = ConjunctiveQuery([("?x", "A", "?a"), ("?x", "B", "?b")])


def test_count_builds_no_inverse_on_a_leaf_anchor():
    # The star's leaves hang off ?x, the subject end: neither index
    # keyed by ?x exists.
    star = one_way_ag(store_from_edges(STAR), STAR_QUERY)
    assert count_embeddings(star) == 2 * 3 + 1 * 1
    assert star.built(("e", 0), "s") is None and star.built(("e", 1), "s") is None
    # A chain as phase 1 leaves it: edge 0 scanned subject-keyed, so the
    # leaf ?a's anchor ?b has no index on edge 0.
    store = figure1_graph()
    _, chain = make_ag(store, figure1_query())
    assert chain.built(("e", 0), "o") is None
    assert count_embeddings(chain) == 12
    assert chain.built(("e", 0), "o") is None


def test_a_limited_head_builds_no_inverse_while_the_relation_is_live():
    star = one_way_ag(store_from_edges(STAR), STAR_QUERY)
    rows, count = first_embeddings(star, 1)
    assert count == 7 and len(rows) == 1
    assert star.built(("e", 0), "s") is None and star.built(("e", 1), "s") is None
    assert rows == materialize_embeddings(star)[:1]


def test_a_lazily_read_head_is_the_head_of_the_full_rows():
    """Leaf values whose ids collide in a set's hash table iterate in
    insertion order; a bucket read at one anchor and one built with the
    whole inverse must still enumerate alike. The ``A`` pairs reach the
    store in descending subject order, the subjects' ids ascend."""
    store = TripleStore()
    subjects = [f"s{i}" for i in range(40)]
    for i, subject in enumerate(subjects):  # spread the ids out
        store.add_term_triples([(subject, "F", f"f{i}"), (f"g{i}", "F", f"h{i}")])
    store.add_term_triples([(s, "A", "hub") for s in reversed(subjects)])
    store.add_term_triples([("hub", "B", f"c{i}") for i in range(3)])
    query = ConjunctiveQuery([("?a", "A", "?b"), ("?b", "B", "?c")])
    full = materialize_embeddings(make_ag(store, query)[1])
    for limit in (1, 7, 39, 41, 119):
        ag = make_ag(store, query)[1]
        assert ag.built(("e", 0), "o") is None
        assert first_embeddings(ag, limit) == (full[:limit], 120)
