"""Pluggable storage backends for :class:`~repro.graph.store.TripleStore`.

A backend owns the physical triple layout (see
:class:`~repro.graph.backends.base.StorageBackend`); the store is a
thin facade over one backend instance. Two layouts ship:

``columnar`` (the default)
    Dictionary-encoded sorted ``array('q')`` runs per predicate with
    offset indexes and galloping/merge intersection — a fraction of the
    memory and of the cyclic collector's heap, binary-search lookups,
    writes staged and sealed with a few numpy calls per predicate.
``hashdict``
    Nested dict-of-sets hash indexes (the original layout) — O(1) point
    lookups and inserts, heaviest memory; ``table1_*`` benchmarks pin it.

Selection precedence: an explicit ``TripleStore(backend=...)`` argument
(name or instance) wins; otherwise the ``REPRO_BACKEND`` environment
variable; otherwise :data:`DEFAULT_BACKEND`. The CI matrix runs the
full tier-1 suite once per backend by exporting ``REPRO_BACKEND``.
"""

from __future__ import annotations

import os

from repro.errors import StoreError
from repro.graph.backends.base import (
    Segment,
    StorageBackend,
    group_pairs,
)
from repro.graph.backends.columnar import ColumnarBackend, SortedRun, intersect_sorted
from repro.graph.backends.hashdict import HashDictBackend

DEFAULT_BACKEND = "columnar"

#: Environment variable overriding the default backend name.
BACKEND_ENV_VAR = "REPRO_BACKEND"

_REGISTRY: dict[str, type[StorageBackend]] = {
    HashDictBackend.name: HashDictBackend,
    ColumnarBackend.name: ColumnarBackend,
}


def available_backends() -> list[str]:
    """The shipped backend names, ascending."""
    return sorted(_REGISTRY)


def default_backend_name() -> str:
    """The backend used when a store is built without an explicit one:
    ``$REPRO_BACKEND`` if set, else :data:`DEFAULT_BACKEND`."""
    name = os.environ.get(BACKEND_ENV_VAR, "").strip()
    return name or DEFAULT_BACKEND


def create_backend(name: str | None = None) -> StorageBackend:
    """Instantiate a backend by name (``None`` = default)."""
    if name is None:
        name = default_backend_name()
    cls = _REGISTRY.get(name)
    if cls is None:
        raise StoreError(
            f"unknown storage backend {name!r} "
            f"(available: {', '.join(available_backends())})"
        )
    return cls()


__all__ = [
    "StorageBackend",
    "Segment",
    "group_pairs",
    "HashDictBackend",
    "ColumnarBackend",
    "SortedRun",
    "intersect_sorted",
    "DEFAULT_BACKEND",
    "BACKEND_ENV_VAR",
    "available_backends",
    "default_backend_name",
    "create_backend",
]
