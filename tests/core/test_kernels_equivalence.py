"""Property-based equivalence: set-at-a-time kernels vs the retained
tuple-at-a-time reference.

The kernels (`repro.core.kernels`) must reproduce the pre-kernel
implementation (`repro.core.reference`) *bit-for-bit*: identical AG
pair sets, identical per-variable node sets, identical edge-walk
counts (per step and total), identical burn/chord/edge-burnback
accounting, and identical timeout behaviour. These properties quantify
over random stores and query shapes including self-joins, constants,
and cyclic (chordified) queries, with look-ahead on (the default) and
off (the paper's phase 1): the oracle applies the same rule one tuple
at a time.

The kernels index a relation in the direction they walked and leave
the other to its first reader; the reference indexes both at once. So
"identical" is checked on pair sets, whichever index holds them, and
:func:`test_deferred_indexes_match_reference` forces every missing
index and checks it against the reference too, under both of node
burnback's removal strategies.
"""

from __future__ import annotations

import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import burnback
from repro.core.defactorize import materialize_embeddings
from repro.core.extension import extend_edge_bulk, incidence_of
from repro.core.generation import generate_answer_graph
from repro.core.kernels import (
    _filtering,
    adjacency_size,
    bulk_extend,
    BLOCK,
    compose_adjacency,
    invert_adjacency,
)
from repro.core.reference import (
    extend_edge_reference,
    generate_answer_graph_reference,
)
from repro.errors import EvaluationTimeout
from repro.planner.edgifier import Edgifier
from repro.planner.triangulator import Triangulator
from repro.query.algebra import bind_query
from repro.query.model import ConjunctiveQuery
from repro.query.shapes import is_acyclic
from repro.stats.catalog import build_catalog
from repro.stats.estimator import CardinalityEstimator
from repro.utils.deadline import Deadline

from tests.properties.strategies import (
    LABELS,
    PHASE2_SHAPES,
    adjacency_pairs,
    build_store,
    bulk_pairs,
    edge_lists,
    projected_queries,
)

SETTINGS = settings(max_examples=60, deadline=None)
#: ``lookahead=`` values: the default, and the paper's phase 1.
LOOKAHEAD = (True, False)

#: Query shapes as (subject, label slot, object) templates. ``?``-terms
#: are variables; ``n<k>`` terms are constants resolved against the
#: random store's node names. Covers chains, stars, cycles, diamonds,
#: self-joins (repeated variable on one edge), and ground endpoints.
SHAPES = (
    # chains / trees
    (("?a", 0, "?b"), ("?b", 1, "?c")),
    (("?a", 0, "?b"), ("?b", 1, "?c"), ("?c", 2, "?d")),
    (("?a", 0, "?b"), ("?a", 1, "?c"), ("?a", 2, "?d")),
    # self-joins
    (("?a", 0, "?a"),),
    (("?a", 0, "?a"), ("?a", 1, "?b")),
    (("?a", 0, "?b"), ("?b", 1, "?b")),
    # constants (subject / object / both)
    (("n0", 0, "?b"), ("?b", 1, "?c")),
    (("?a", 0, "n1"), ("?a", 1, "?c")),
    (("n0", 0, "n1"), ("n1", 1, "?c")),
    (("?a", 0, "?b"), ("?b", 1, "n2")),
    # cyclic: triangle, diamond, parallel edges
    (("?a", 0, "?b"), ("?b", 1, "?c"), ("?a", 2, "?c")),
    (("?x", 0, "?e"), ("?x", 1, "?z"), ("?y", 2, "?e"), ("?y", 3, "?z")),
    (("?a", 0, "?b"), ("?a", 1, "?b")),
)


@st.composite
def queries(draw):
    shape = draw(st.sampled_from(SHAPES))
    labels = draw(
        st.lists(
            st.sampled_from(LABELS), min_size=len(shape), max_size=len(shape)
        )
    )
    edges = [(s, labels[slot], o) for (s, slot, o) in shape]
    return ConjunctiveQuery(edges)


def _plan(store, query):
    """Bind and plan, discarding (hypothesis-)examples the planner
    rejects — e.g. constants unknown to the store can disconnect the
    query graph, a pre-kernel planner behaviour out of scope here."""
    from repro.errors import PlanError

    bound = bind_query(query, store)
    estimator = CardinalityEstimator(build_catalog(store))
    try:
        plan = Edgifier(estimator).plan(bound)
    except PlanError:
        assume(False)
    chordification = (
        None if is_acyclic(query) else Triangulator(estimator).plan(bound)
    )
    return bound, plan, chordification


def _generate_both(store, query, edge_burnback, lookahead):
    bound, plan, chordification = _plan(store, query)
    ag_k, stats_k = generate_answer_graph(
        bound,
        plan,
        chordification=chordification,
        edge_burnback_enabled=edge_burnback,
        lookahead=lookahead,
    )
    ag_r, stats_r = generate_answer_graph_reference(
        bound,
        plan,
        chordification=chordification,
        edge_burnback_enabled=edge_burnback,
        lookahead=lookahead,
    )
    return (ag_k, stats_k), (ag_r, stats_r)


@SETTINGS
@given(graph=edge_lists(), query=queries())
def test_generation_matches_reference(graph, query):
    """AG state and every stat of phase 1 are bit-identical."""
    store = build_store(graph)
    for lookahead in LOOKAHEAD:
        (ag_k, stats_k), (ag_r, stats_r) = _generate_both(
            store, query, False, lookahead
        )
        assert ag_k.snapshot() == ag_r.snapshot(), lookahead
        assert stats_k == stats_r, lookahead


@SETTINGS
@given(graph=edge_lists(), query=queries())
def test_generation_matches_reference_with_edge_burnback(graph, query):
    store = build_store(graph)
    for lookahead in LOOKAHEAD:
        (ag_k, stats_k), (ag_r, stats_r) = _generate_both(
            store, query, True, lookahead
        )
        assert ag_k.snapshot() == ag_r.snapshot(), lookahead
        assert stats_k == stats_r, lookahead


@SETTINGS
@given(graph=edge_lists(), query=queries())
def test_single_extension_matches_reference(graph, query):
    """One extension step over an empty AG: pairs and walks agree."""
    from repro.core.answer_graph import AnswerGraph

    store = build_store(graph)
    bound = bind_query(query, store)
    ag = AnswerGraph(bound)
    for edge in bound.edges:
        got = extend_edge_bulk(ag, store, edge, Deadline.unlimited())
        want = extend_edge_reference(ag, store, edge, Deadline.unlimited())
        assert bulk_pairs(got) == want.pairs
        assert got.walks == want.edge_walks


@SETTINGS
@given(graph=edge_lists(), query=queries(), data=st.data())
def test_bulk_extension_backward_index_consistent(graph, query, data):
    """A kernel hands over the direction it walked; the index the AG
    derives from it is its exact inverse. The far endpoint is
    constrained to a drawn node set, so that every walking direction
    and the far-endpoint filter are covered — or left free, to be
    filtered by the look-ahead views."""
    from repro.core.answer_graph import AnswerGraph

    store = build_store(graph)
    bound = bind_query(query, store)
    incidence = incidence_of(bound) if data.draw(st.booleans()) else None
    known = sorted(store.nodes())  # none when every drawn label is empty
    nodes = st.sets(st.sampled_from(known)) if known else st.just(set())
    for edge in bound.edges:
        ag = AnswerGraph(bound)
        for var in edge.var_set():
            if data.draw(st.booleans()):
                ag.node_sets[var] = data.draw(nodes)
        result = extend_edge_bulk(ag, store, edge, Deadline.unlimited(), incidence)
        want = extend_edge_reference(
            ag, store, edge, Deadline.unlimited(), incidence
        )
        assert (result.forward is None) != (result.backward is None)
        assert bulk_pairs(result) == want.pairs
        assert result.walks == want.edge_walks
        ag.register_relation(
            ("e", edge.index),
            edge.s_var,
            edge.o_var,
            forward=result.forward,
            backward=result.backward,
            predicate=result.predicate,
        )
        assert adjacency_pairs(ag.forward(("e", edge.index))) == want.pairs
        assert adjacency_pairs(ag.backward(("e", edge.index))) == {
            (o, s) for s, o in want.pairs
        }


def _assert_node_set_invariant(ag):
    """``answer_graph.py``'s docstring: a variable's node set is what
    every relation incident to it holds at its position."""
    for var, positions in ag.var_positions.items():
        if positions:
            assert ag.node_sets[var] == set.intersection(
                *(set(ag.endpoints(rel, pos)) for rel, pos in positions)
            )


@pytest.mark.parametrize(
    "edge_burnback", [False, True], ids=["node-burnback", "edge-burnback"]
)
@pytest.mark.parametrize("backend", ["hashdict", "columnar"])
@settings(max_examples=25, deadline=None)
@given(graph=edge_lists(), shape=st.sampled_from(sorted(PHASE2_SHAPES)), data=st.data())
def test_deferred_indexes_match_reference(backend, edge_burnback, graph, shape, data):
    """Whatever phase 1 left unbuilt, building it gives the reference's
    relation: both indexes of every relation are mutual inverses equal
    to the oracle's pair set, every stat agrees, and the node-set
    invariant holds — with every cascade batch removed by probe
    (ratio 0) and with every one removed by a pass (ratio ∞), with
    look-ahead (a drawn half of the examples) and without."""
    store = build_store(graph, backend)
    query = data.draw(projected_queries(PHASE2_SHAPES[shape]))
    lookahead = data.draw(st.booleans())
    bound, plan, chordification = _plan(store, query)
    ag_r, stats_r = generate_answer_graph_reference(
        bound, plan, chordification=chordification,
        edge_burnback_enabled=edge_burnback, lookahead=lookahead,
    )
    for ratio in (0, math.inf):
        with mock.patch.object(burnback, "PASS_BATCH_RATIO", ratio):
            ag, stats = generate_answer_graph(
                bound, plan, chordification=chordification,
                edge_burnback_enabled=edge_burnback, lookahead=lookahead,
            )
        assert dataclasses.asdict(stats) == dataclasses.asdict(stats_r)
        assert ag.snapshot() == ag_r.snapshot()
        if not ag.empty:
            _assert_node_set_invariant(ag)
        for rel in ag_r.materialized_order:
            want = ag_r.pair_set(rel)
            forward, backward = ag.forward(rel), ag.backward(rel)
            assert all(forward.values()) and all(backward.values())
            assert adjacency_pairs(forward) == want
            assert adjacency_pairs(backward) == {(o, s) for s, o in want}


def test_paper_queries_walks_bit_identical():
    """`evaluate_detailed` walk counts on the paper's benchmark queries
    match the tuple-at-a-time implementation exactly, with look-ahead
    and without, and their totals are pinned: without look-ahead it is
    what every commit since the kernels were written has walked
    (scale 0.25, seed 0)."""
    from repro.datasets.paper_queries import paper_queries
    from repro.datasets.yago_like import generate_yago_like

    store = generate_yago_like(scale=0.25, seed=0)
    from repro.core.engine import WireframeEngine

    for lookahead, total_walks in ((True, 8885), (False, 12821)):
        engine = WireframeEngine(store, edge_burnback=True, lookahead=lookahead)
        walked = 0
        for query in paper_queries():
            bound, plan, chordification = engine.plan(query)
            detailed = engine.evaluate_detailed(
                query, prepared=(bound, plan, chordification), materialize=False
            )
            stats_k = detailed.generation_stats
            ag_r, stats_r = generate_answer_graph_reference(
                bound, plan, chordification=chordification,
                edge_burnback_enabled=True, lookahead=lookahead,
            )
            assert stats_k.edge_walks == stats_r.edge_walks
            assert stats_k.step_walks == stats_r.step_walks
            assert stats_k == stats_r
            assert detailed.ag_size == ag_r.size
            walked += stats_k.edge_walks
        assert walked == total_walks, lookahead


# ----------------------------------------------------------------------
# Timeout paths
# ----------------------------------------------------------------------


def _busy_store():
    """A store big enough that generation performs >stride walks."""
    return build_store(
        {
            "A": [(i, j) for i in range(40) for j in range(40)],
            "B": [(i, j) for i in range(40) for j in range(40)],
        }
    )


@pytest.mark.parametrize("generation", [
    generate_answer_graph, generate_answer_graph_reference,
])
def test_expired_deadline_raises_in_both_implementations(generation):
    store = _busy_store()
    query = ConjunctiveQuery([("?a", "A", "?b"), ("?b", "B", "?c")])
    bound, plan, chordification = _plan(store, query)
    deadline = Deadline(0.000001, stride=256)
    with pytest.raises(EvaluationTimeout):
        generation(bound, plan, chordification=chordification, deadline=deadline)


def test_kernel_timeout_overshoot_is_block_bounded():
    """The kernel path notices an expired deadline within one block of
    work rather than running the full generation."""
    import time

    store = _busy_store()
    query = ConjunctiveQuery([("?a", "A", "?b"), ("?b", "B", "?c")])
    bound, plan, chordification = _plan(store, query)
    deadline = Deadline(0.000001, stride=1)
    t0 = time.perf_counter()
    with pytest.raises(EvaluationTimeout):
        generate_answer_graph(
            bound, plan, chordification=chordification, deadline=deadline
        )
    assert time.perf_counter() - t0 < 5.0


# ----------------------------------------------------------------------
# Kernel primitive unit properties
# ----------------------------------------------------------------------

adjacencies = st.dictionaries(
    st.integers(0, 15),
    st.sets(st.integers(0, 15), min_size=1, max_size=6),
    max_size=8,
)


@SETTINGS
@given(adj=adjacencies)
def test_invert_adjacency_is_involution(adj):
    assert invert_adjacency(invert_adjacency(adj)) == adj


@SETTINGS
@given(adj=adjacencies)
def test_adjacency_size_counts_pairs(adj):
    assert adjacency_size(adj) == len(adjacency_pairs(adj))


@SETTINGS
@given(a=adjacencies, b=adjacencies)
def test_compose_adjacency_matches_pair_composition(a, b):
    want = {
        (x, v)
        for x, ys in a.items()
        for y in ys
        for v in b.get(y, ())
    }
    assert adjacency_pairs(compose_adjacency(a, b)) == want


@SETTINGS
@given(graph=edge_lists(), query=queries())
def test_bulk_extend_fresh_containers(graph, query):
    """Kernel output never aliases live store index sets, in whichever
    direction it comes."""
    store = build_store(graph)
    bound = bind_query(query, store)
    from repro.core.answer_graph import AnswerGraph

    ag = AnswerGraph(bound)
    for edge in bound.edges:
        if not edge.satisfiable:
            continue
        for var in (None, edge.s_var, edge.o_var):  # scan, from subjects, from objects
            if var is not None:
                ag.node_sets = {var: set(store.nodes())}
            result = extend_edge_bulk(ag, store, edge, Deadline.unlimited())
            for s, objs in (result.forward or {}).items():
                assert objs is not store.successors(edge.p, s)
            for o, subs in (result.backward or {}).items():
                assert subs is not store.predecessors(edge.p, o)
        ag.node_sets = {}


@pytest.mark.parametrize("backend", ["hashdict", "columnar"])
def test_view_is_consulted_only_where_far_endpoints_dangle(backend):
    """A look-ahead view that holds every far endpoint of the predicate
    cannot drop a pair: a step that reads most of the predicate finds
    that out from the store and copies its buckets, a point lookup does
    not ask. Pairs and walks are those of the unfiltered step."""
    a = [(s, o) for s in range(8) for o in (100 + s, 101 + s)]
    store = build_store(
        {"A": a, "B": [(o, 0) for _, o in a], "C": [(100, 0)]}, backend
    )
    p, b, c = (store.dictionary.lookup(label) for label in "ABC")
    far, covers, misses = store.object_set(p), store.subject_set(b), store.subject_set(c)
    n_near = len(store.subject_set(p))

    assert _filtering([covers], far, n_near, n_near) == []
    assert _filtering([covers, misses], far, n_near, n_near) == [misses]
    assert _filtering([covers], far, 1, n_near) == [covers]

    every = set(store.subject_set(p))
    plain = bulk_extend(store, p, every, None, False, Deadline.unlimited())
    viewed = bulk_extend(
        store, p, every, None, False, Deadline.unlimited(), o_views=[covers]
    )
    assert viewed == plain
    for s, objs in viewed.forward.items():
        assert objs is not store.successors(p, s)


@SETTINGS
@given(graph=edge_lists())
def test_store_bulk_views_are_live_and_consistent(graph):
    """subject_set/object_set/adjacency hand back live index views that
    agree with the edge scan."""
    store = build_store(graph)
    for label in LABELS:
        p = store.dictionary.lookup(label)
        if p is None:
            continue
        edges = set(store.edges(p))
        subjects = {s for s, _ in edges}
        objects = {o for _, o in edges}
        assert set(store.subject_set(p)) == subjects
        assert set(store.object_set(p)) == objects
        adj = store.adjacency(p)
        rev = store.reverse_adjacency(p)
        assert adj.keys() == store.subject_set(p)
        assert rev.keys() == store.object_set(p)
        assert {(s, o) for s, objs in adj.items() for o in objs} == edges
        # set-like views: usable directly in set algebra, no copies
        assert store.subject_set(p) & store.object_set(p) == subjects & objects


def test_register_relation_argument_validation():
    from repro.core.answer_graph import AnswerGraph
    from repro.errors import EvaluationError

    store = build_store({"A": [(0, 1)]})
    bound = bind_query(ConjunctiveQuery([("?a", "A", "?b")]), store)
    ag = AnswerGraph(bound)
    with pytest.raises(EvaluationError):
        ag.register_relation(("e", 0), 0, 1)  # no direction at all
    assert not ag.is_materialized(("e", 0))
    for kwargs in (
        dict(forward={1: {2}}),
        dict(backward={2: {1}}),
        dict(forward={1: {2}}, backward={2: {1}}),
    ):
        ag = AnswerGraph(bound)
        ag.register_relation(("e", 0), 0, 1, **kwargs)
        assert ag.forward(("e", 0)) == {1: {2}}
        assert ag.backward(("e", 0)) == {2: {1}}


# ----------------------------------------------------------------------
# Deferred index builds
# ----------------------------------------------------------------------


@pytest.mark.parametrize("run", [materialize_embeddings])
def test_expired_deadline_raises_from_a_deferred_build(run):
    """Phase 1 left an index phase 2 needs unbuilt; building it polls
    the deadline phase 2 was given. (Counting builds no inverse at all:
    ``tests/core/test_defactorize.py``.)"""
    store = _busy_store()
    query = ConjunctiveQuery([("?a", "A", "?b"), ("?b", "B", "?c")])
    bound, plan, chordification = _plan(store, query)
    ag, _ = generate_answer_graph(bound, plan, chordification=chordification)
    assert ag.built(("e", 0), "o") is None  # the leaf ?a hangs off ?b
    with pytest.raises(EvaluationTimeout) as caught:
        run(ag, deadline=Deadline(0.000001, stride=1))
    assert "invert_adjacency" in [entry.name for entry in caught.traceback]
    assert ag.built(("e", 0), "o") is None
    assert run(ag, deadline=Deadline.unlimited()) and ag.built(("e", 0), "o")


def test_large_inversion_polls_the_deadline_inside_its_loop():
    """An inversion of several blocks of keys polls the deadline per
    block, from inside the loop, not once before or after it."""
    adj = {x: {x + 1, x + 2} for x in range(3 * BLOCK)}
    with pytest.raises(EvaluationTimeout) as caught:
        invert_adjacency(adj, Deadline(1e-6, stride=1))
    frames = [entry.name for entry in caught.traceback]
    assert frames[-2:] == ["invert_adjacency", "check_every"]
    assert invert_adjacency(adj, Deadline.unlimited()) == invert_adjacency(adj)


def test_deferred_build_ignores_the_store_once_it_was_written_to():
    """An AG may outlive the store state it was generated from; an
    index it builds later is still the inverse of what it holds: no
    index build reads the store."""
    store = build_store({"A": [(0, 1), (3, 2)], "B": [(1, 4), (2, 4)]})
    query = ConjunctiveQuery([("?a", "A", "?b"), ("?b", "B", "?c")])
    bound, plan, chordification = _plan(store, query)
    ag, _ = generate_answer_graph(bound, plan, chordification=chordification)
    rel = ("e", 0)
    want = ag.pair_set(rel)
    assert len(want) == 2
    assert ag.built(rel, "s") is None or ag.built(rel, "o") is None
    # A new edge between a subject and an object the relation holds.
    assert store.add_term_triple("n0", "A", "n2")
    assert adjacency_pairs(ag.forward(rel)) == want
    assert adjacency_pairs(ag.backward(rel)) == {(o, s) for s, o in want}
