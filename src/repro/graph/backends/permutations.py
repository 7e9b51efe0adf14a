"""Lazily-materialized node-first indexes (SPO and OPS).

Both shipped backends keep their *primary* data predicate-first and
materialize the two node-first permutations only when the query
miner's random walks first ask for a node's out- or in-edges
(:meth:`~repro.graph.store.TripleStore.out_edges` /
:meth:`~repro.graph.store.TripleStore.in_edges`). The build-once /
publish-exactly-once discipline lives here, behind one lock shared by
builders and writers:

* concurrent readers racing to materialize the same permutation build
  it once — the double-checked ``get`` below — and never observe a
  half-built index;
* a writer inserting while another thread builds a permutation
  serializes against the build, so the new triple is either included
  by the ongoing scan or patched in afterwards, never lost.

The materialized form is a nested ``{k1: {k2: {k3, ...}}}`` hash index
regardless of the owning backend's primary layout: node-first reads
are a cold path (query mining), so a simple uniform representation
beats per-backend cleverness.
"""

from __future__ import annotations

import sys
import threading
from typing import Callable, Iterator

from repro.graph.triples import Triple

#: Extraction order of each lazily-built permutation.
PERMUTATION_EXTRACTORS = {
    "spo": lambda t: (t.s, t.p, t.o),
    "ops": lambda t: (t.o, t.p, t.s),
}


class LazyPermutations:
    """Thread-safe container of the two node-first permutation indexes.

    The owning backend passes its full-scan ``triples`` iterator *per
    call* to :meth:`get` rather than at construction — storing the
    bound method here would create a backend → permutations → backend
    reference cycle, turning every discarded store into cyclic garbage
    that only the gen-2 GC can reclaim (a measurable collection pause
    once many stores have been built and dropped).
    """

    def __init__(self) -> None:
        self._indexes: dict[str, dict] = {}
        # Reentrant: backends wrap their own primary-index mutation in
        # this lock (see `lock` below) and then call :meth:`insert`,
        # which re-acquires it.
        self._lock = threading.RLock()

    @property
    def materialized(self) -> bool:
        """Whether any permutation has been built yet (writers use this
        to decide if a bulk import must patch the secondary indexes)."""
        return bool(self._indexes)

    @property
    def lock(self) -> threading.RLock:
        """The build lock, shared with the owning backend's writers.

        A writer mutating the primary indexes while a builder scans
        them via ``triples()`` would corrupt the scan ("dict changed
        size during iteration") or lose the triple from the built
        index; backends therefore hold this lock across the whole
        mutation (primary update + :meth:`insert`). Builds hold it for
        the whole scan, so writers and builders strictly alternate
        while plain readers stay lock-free.
        """
        return self._lock

    def get(self, name: str, triples: Callable[[], Iterator[Triple]]) -> dict:
        """The named permutation (``"spo"`` or ``"ops"``), building it
        from ``triples`` on first use."""
        index = self._indexes.get(name)
        if index is None:
            # Double-checked: racing readers build at most once, and an
            # index is only published (made visible to the lock-free
            # fast path above) fully built.
            with self._lock:
                index = self._indexes.get(name)
                if index is None:
                    index = {}
                    order = PERMUTATION_EXTRACTORS[name]
                    for triple in triples():
                        k1, k2, k3 = order(triple)
                        index.setdefault(k1, {}).setdefault(k2, set()).add(k3)
                    self._indexes[name] = index
        return index

    def insert(self, s: int, p: int, o: int) -> None:
        """Patch one new triple into every already-built permutation.

        Takes the lock *before* checking for materialized indexes: a
        build in progress on another thread may have already scanned
        past this triple's position, so the patch must wait for the
        build to publish and then apply — checking lock-free would drop
        the triple from the freshly-built index (the classic
        freeze/lazy-materialization lost-update race). The patch is a
        set insert, so a triple both scanned and patched is harmless.
        """
        with self._lock:
            if not self._indexes:
                return
            triple = Triple(s, p, o)
            for name, index in self._indexes.items():
                k1, k2, k3 = PERMUTATION_EXTRACTORS[name](triple)
                index.setdefault(k1, {}).setdefault(k2, set()).add(k3)

    def discard(self, s: int, p: int, o: int) -> None:
        """Remove one triple from every already-built permutation.

        The write-path mirror of :meth:`insert`, with the same locking
        rationale: a build in progress may have scanned the triple
        already, so the discard must wait for the build to publish.
        Empty inner containers are pruned so a removed node disappears
        from node-first scans rather than lingering as a dead key.
        """
        with self._lock:
            if not self._indexes:
                return
            triple = Triple(s, p, o)
            for name, index in self._indexes.items():
                k1, k2, k3 = PERMUTATION_EXTRACTORS[name](triple)
                inner = index.get(k1)
                if inner is None:
                    continue
                leaf = inner.get(k2)
                if leaf is None:
                    continue
                leaf.discard(k3)
                if not leaf:
                    del inner[k2]
                    if not inner:
                        del index[k1]

    def index_bytes(self) -> int:
        """Container bytes of every materialized permutation."""
        return sum(
            nested_index_bytes(index) for index in self._indexes.values()
        )


def nested_index_bytes(index: dict) -> int:
    """Container bytes of one ``{k1: {k2: {k3...}}}`` nested index —
    the sizing rule shared by every dict-of-sets index in this package
    (hashdict primaries and lazy permutations alike)."""
    total = sys.getsizeof(index)
    for inner in index.values():
        total += sys.getsizeof(inner)
        total += sum(sys.getsizeof(leaf) for leaf in inner.values())
    return total
