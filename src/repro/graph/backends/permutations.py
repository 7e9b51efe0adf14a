"""Node-first indexes (SPO and OPS), rebuilt once per epoch.

Both shipped backends keep their *primary* data predicate-first and
build the two node-first permutations only when the query miner's
random walks ask for a node's out- or in-edges
(:meth:`~repro.graph.store.TripleStore.out_edges` /
:meth:`~repro.graph.store.TripleStore.in_edges`). A built index is
never patched: it records the backend epoch it was built at, and the
first read after a write (the epoch moved) rebuilds it from
``triples()`` under the backend's one write lock. So:

* concurrent readers racing to build the same permutation build it
  once — the double-checked ``get`` below — and never observe a
  half-built index;
* a write made while a build runs waits for it, moves the epoch, and
  is in the next read's rebuild; writers never touch these indexes.

The built form is a nested ``{k1: {k2: {k3, ...}}}`` hash index
regardless of the owning backend's primary layout: node-first reads
are a cold path (query mining), so a simple uniform representation
beats per-backend cleverness. Every index is a fresh build, so its
iteration order (which the miner samples in) is the one a first build
at that epoch gives.
"""

from __future__ import annotations

import sys
from contextlib import AbstractContextManager
from typing import Callable, Iterator

from repro.graph.triples import Triple

#: Extraction order of each node-first permutation.
PERMUTATION_EXTRACTORS = {
    "spo": lambda t: (t.s, t.p, t.o),
    "ops": lambda t: (t.o, t.p, t.s),
}


class LazyPermutations:
    """The two node-first permutation indexes, each tagged with the
    epoch it was built at.

    The owning backend passes its epoch, its write lock and its
    full-scan ``triples`` iterator *per call* to :meth:`get` rather
    than at construction — storing the bound method here would create a
    backend → permutations → backend reference cycle, turning every
    discarded store into cyclic garbage that only the gen-2 GC can
    reclaim (a measurable collection pause once many stores have been
    built and dropped).
    """

    def __init__(self) -> None:
        #: name -> (the epoch it was built at, the index).
        self._built: dict[str, tuple[int, dict]] = {}

    def get(
        self,
        name: str,
        epoch: int,
        lock: AbstractContextManager,
        triples: Callable[[], Iterator[Triple]],
    ) -> dict:
        """The named permutation (``"spo"`` or ``"ops"``) as of ``epoch``,
        built from ``triples`` under ``lock`` unless the one built last
        is at least that new.

        The caller reads ``epoch`` before the lock, and the scan starts
        after it, so an index holds every write up to its tag (and maybe
        later ones); epochs only grow, hence ``<``. Double-checked:
        racing readers build once, and an index is published (made
        visible to the lock-free fast path) only fully built.
        """
        built = self._built.get(name)
        if built is None or built[0] < epoch:
            with lock:
                built = self._built.get(name)
                if built is None or built[0] < epoch:
                    index: dict = {}
                    order = PERMUTATION_EXTRACTORS[name]
                    for triple in triples():
                        k1, k2, k3 = order(triple)
                        index.setdefault(k1, {}).setdefault(k2, set()).add(k3)
                    built = self._built[name] = (epoch, index)
        return built[1]

    def index_bytes(self) -> int:
        """Container bytes of every built permutation."""
        return sum(nested_index_bytes(index) for _, index in self._built.values())


def nested_index_bytes(index: dict) -> int:
    """Container bytes of one ``{k1: {k2: {k3...}}}`` nested index —
    the sizing rule shared by every dict-of-sets index in this package
    (hashdict primaries and node-first permutations alike)."""
    total = sys.getsizeof(index)
    for inner in index.values():
        total += sys.getsizeof(inner)
        total += sum(sys.getsizeof(leaf) for leaf in inner.values())
    return total
