"""Tests for chord materialization."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.defactorize import count_embeddings, materialize_embeddings
from repro.core.engine import WireframeEngine
from repro.core.generation import generate_answer_graph
from repro.core.reference import generate_answer_graph_reference
from repro.core.triangles import drop_chords, join_triangle_adjacency, materialize_chords
from repro.datasets.motifs import figure4_graph, figure4_query
from repro.errors import EvaluationTimeout
from repro.planner.edgifier import Edgifier
from repro.planner.plan import Chord, Chordification, SideRef, Triangle, TriangleSide
from repro.planner.triangulator import Triangulator
from repro.query.algebra import bind_query
from repro.query.model import ConjunctiveQuery
from repro.stats.catalog import build_catalog
from repro.stats.estimator import CardinalityEstimator
from repro.utils.deadline import Deadline

from tests.properties.strategies import LABELS, build_store, edge_lists


def diamond_setup(keep_chords=True):
    store = figure4_graph()
    bound = bind_query(figure4_query(), store)
    estimator = CardinalityEstimator(build_catalog(store))
    plan = Edgifier(estimator).plan(bound)
    chordification = Triangulator(estimator).plan(bound)
    ag, stats = generate_answer_graph(
        bound, plan, chordification=chordification, keep_chords=keep_chords
    )
    return store, bound, chordification, ag


def test_chord_is_materialized_as_relation():
    store, bound, chordification, ag = diamond_setup()
    chord = chordification.chords[0]
    rel = ("c", chord.index)
    assert ag.is_materialized(rel)
    assert ag.relation_size(rel) > 0


def test_chord_pairs_are_two_step_compositions():
    store, bound, chordification, ag = diamond_setup()
    chord = chordification.chords[0]
    rel = ("c", chord.index)
    # Every chord pair (u, v) must be witnessed through both triangles'
    # opposite sides (it is an intersection of their joins).
    for triangle in chordification.triangles:
        joined = join_triangle_adjacency(
            ag, triangle, chord.u, chord.v, Deadline.unlimited()
        )
        assert ag.pair_set(rel) <= {(u, v) for u, vs in joined.items() for v in vs}


def test_chord_constrains_node_sets():
    store, bound, chordification, ag = diamond_setup()
    chord = chordification.chords[0]
    rel = ("c", chord.index)
    assert set(ag.endpoints(rel, "s")) <= ag.node_sets[chord.u]
    assert set(ag.endpoints(rel, "o")) <= ag.node_sets[chord.v]


def test_drop_chords_removes_relations():
    store, bound, chordification, ag = diamond_setup()
    drop_chords(ag, chordification)
    for chord in chordification.chords:
        assert not ag.is_materialized(("c", chord.index))
    # Real edges untouched.
    assert ag.size == 10


def test_default_generation_drops_chords():
    _, _, chordification, ag = diamond_setup(keep_chords=False)
    for chord in chordification.chords:
        assert not ag.is_materialized(("c", chord.index))


# ----------------------------------------------------------------------
# The Generic-Join chord equals compose ∩ compose
# ----------------------------------------------------------------------

#: Cycles the Triangulator chordifies: one chord, two chords (the second
#: built over the first), three.
CYCLES = {
    "4-cycle": (("?a", 0, "?b"), ("?b", 1, "?c"), ("?c", 2, "?d"), ("?a", 3, "?d")),
    "5-cycle": (
        ("?a", 0, "?b"), ("?b", 1, "?c"), ("?c", 2, "?d"), ("?d", 3, "?e"), ("?a", 0, "?e"),
    ),
    "6-cycle": (
        ("?a", 0, "?b"), ("?b", 1, "?c"), ("?c", 2, "?d"), ("?d", 3, "?e"),
        ("?e", 0, "?f"), ("?a", 1, "?f"),
    ),
}
#: Three paths of length two between ?x and ?y: with the chord (?x, ?y)
#: in all three triangles (:func:`fan_chordification`).
FAN = (
    ("?x", 0, "?a"), ("?a", 1, "?y"), ("?x", 2, "?b"), ("?b", 3, "?y"),
    ("?x", 0, "?c"), ("?c", 1, "?y"),
)
BACKENDS = ("hashdict", "columnar")


def fan_chordification(bound):
    """One chord x -> y in a triangle with each of the fan's apexes."""
    x, y = bound.var_names.index("x"), bound.var_names.index("y")
    side = {
        frozenset(e.var_set()): TriangleSide(SideRef("edge", e.index), e.s_var, e.o_var)
        for e in bound.edges
    }
    chord = TriangleSide(SideRef("chord", 0), x, y)
    triangles = tuple(
        Triangle((x, z, y), (side[frozenset((x, z))], side[frozenset((z, y))], chord))
        for z in sorted(set(range(bound.num_vars)) - {x, y})
    )
    return Chordification((Chord(0, x, y, 0.0),), triangles, (0,), 0.0)


def generate_both(graph, shape, labels, backend, edge_burnback):
    store = build_store(graph, backend)
    query = ConjunctiveQuery([(s, labels[slot], o) for s, slot, o in shape])
    bound = bind_query(query, store)
    estimator = CardinalityEstimator(build_catalog(store))
    plan = Edgifier(estimator).plan(bound)
    if shape is FAN:
        chordification = fan_chordification(bound)
    else:
        chordification = Triangulator(estimator).plan(bound)
    return [
        generate(
            bound,
            plan,
            chordification=chordification,
            edge_burnback_enabled=edge_burnback,
            keep_chords=True,
        )
        for generate in (generate_answer_graph, generate_answer_graph_reference)
    ], chordification


@pytest.mark.parametrize("shape", [*CYCLES.values(), FAN], ids=[*CYCLES, "fan"])
@settings(max_examples=25, deadline=None)
@given(
    graph=edge_lists(max_nodes=6, max_edges_per_label=14),
    labels=st.lists(st.sampled_from(LABELS), min_size=4, max_size=4),
)
def test_generic_join_chord_equals_reference(shape, graph, labels):
    """Chord pairs, ``chord_pairs`` and the node sets after the cascade
    are the reference's (compose ∩ compose), on both backends, with edge
    burnback on and off."""
    for backend in BACKENDS:
        for edge_burnback in (False, True):
            [(ag, stats), (ag_ref, stats_ref)], chordification = generate_both(
                graph, shape, labels, backend, edge_burnback
            )
            where = (backend, edge_burnback)
            assert ag.snapshot() == ag_ref.snapshot(), where
            assert stats == stats_ref, where
            for chord in chordification.chords:
                rel = ("c", chord.index)
                assert ag.is_materialized(rel) == ag_ref.is_materialized(rel), where


def test_fan_chord_sits_in_three_triangles():
    store = build_store({"A": [(0, 1), (0, 2)], "B": [(1, 3), (2, 3)], "C": [], "D": []})
    bound = bind_query(ConjunctiveQuery([(s, "AB"[slot % 2], o) for s, slot, o in FAN]), store)
    assert len(fan_chordification(bound).triangles) == 3


def test_engine_answer_graph_holds_no_chord():
    store = figure4_graph()
    for engine in (WireframeEngine(store), WireframeEngine(store, edge_burnback=True)):
        for materialize, limit in ((True, None), (True, 2), (False, None)):
            detail = engine.evaluate_detailed(
                figure4_query(), materialize=materialize, limit=limit
            )
            assert detail.chordification.chords
            assert all(kind == "e" for kind, _ in detail.answer_graph.rel_vars)
            assert detail.ag_size == detail.answer_graph.size


#: The diamond over :func:`full_diamond_store`'s labels.
FULL_DIAMOND = ConjunctiveQuery(
    [("?x", "A", "?e"), ("?x", "B", "?z"), ("?y", "C", "?e"), ("?y", "D", "?z")]
)


def full_diamond_store(n):
    """Every x -> e, x -> z, y -> e, y -> z edge over n nodes each: n²
    chord pairs, n² rows per pair."""
    x, y, e, z = (range(k * n, (k + 1) * n) for k in range(4))
    return build_store({
        "A": [(i, j) for i in x for j in e],
        "B": [(i, j) for i in x for j in z],
        "C": [(i, j) for i in y for j in e],
        "D": [(i, j) for i in y for j in z],
    })


def expired():
    deadline = Deadline(1e-6, stride=1)
    time.sleep(1e-3)
    return deadline


def test_expired_deadline_stops_chord_pair_enumeration():
    store = full_diamond_store(12)
    engine = WireframeEngine(store)
    bound, plan, chordification = engine.plan(FULL_DIAMOND)
    ag, _ = generate_answer_graph(bound, plan, chordification=chordification, keep_chords=True)
    assert any(kind == "c" for kind, _ in ag.rel_vars)
    with pytest.raises(EvaluationTimeout):
        count_embeddings(ag, deadline=expired())
    with pytest.raises(EvaluationTimeout):
        materialize_embeddings(ag, deadline=expired())
    assert count_embeddings(ag) == 12**4


def test_expired_deadline_stops_chord_materialization():
    store = full_diamond_store(12)
    bound, plan, chordification = WireframeEngine(store).plan(FULL_DIAMOND)
    ag, _ = generate_answer_graph(bound, plan)
    with pytest.raises(EvaluationTimeout):
        materialize_chords(ag, chordification, expired())
