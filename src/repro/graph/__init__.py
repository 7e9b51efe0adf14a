"""RDF graph substrate: string dictionary, triple store, N-Triples I/O.

This package is substrate #1 in DESIGN.md: an in-memory, integer-encoded
triple store read predicate-first (every CQ edge carries a fixed label)
over one of two physical layouts, plus a small N-Triples reader/writer
and a convenience builder.
"""

from repro.graph.backends import (
    ColumnarBackend,
    HashDictBackend,
    StorageBackend,
    available_backends,
    create_backend,
    default_backend_name,
)
from repro.graph.dictionary import Dictionary, DictionaryView
from repro.graph.triples import Triple
from repro.graph.store import TripleStore
from repro.graph.ntriples import parse_ntriples, serialize_ntriples
from repro.graph.builder import GraphBuilder

__all__ = [
    "Dictionary",
    "DictionaryView",
    "Triple",
    "TripleStore",
    "StorageBackend",
    "HashDictBackend",
    "ColumnarBackend",
    "available_backends",
    "create_backend",
    "default_backend_name",
    "parse_ntriples",
    "serialize_ntriples",
    "GraphBuilder",
]
