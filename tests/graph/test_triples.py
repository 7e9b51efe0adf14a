"""Tests for the Triple value type."""

from repro.graph.triples import Triple


def test_triple_fields():
    t = Triple(1, 2, 3)
    assert (t.s, t.p, t.o) == (1, 2, 3)
    assert tuple(t) == (1, 2, 3)
