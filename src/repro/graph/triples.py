"""The triple value type.

A :class:`Triple` is a fully-ground integer-encoded RDF statement, the
unit :meth:`~repro.graph.store.TripleStore.triples` yields.
"""

from __future__ import annotations

from typing import NamedTuple


class Triple(NamedTuple):
    """A ground triple ⟨subject, predicate, object⟩ of interned ids."""

    s: int
    p: int
    o: int
