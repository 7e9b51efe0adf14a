"""Tests for chord materialization."""

from repro.core.generation import generate_answer_graph
from repro.core.triangles import drop_chords, join_triangle_adjacency
from repro.datasets.motifs import figure4_graph, figure4_query
from repro.planner.edgifier import Edgifier
from repro.planner.triangulator import Triangulator
from repro.query.algebra import bind_query
from repro.stats.catalog import build_catalog
from repro.stats.estimator import CardinalityEstimator
from repro.utils.deadline import Deadline


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
