"""The storage-backend protocol: one physical triple layout per class.

A :class:`StorageBackend` owns the *physical* representation of the
triple set — nested hash maps, sorted integer columns, future
memory-mapped or sharded layouts — and exposes exactly the views the
rest of the system consumes:

* predicate-first point reads (:meth:`successors` /
  :meth:`predecessors` / :meth:`edges` / :meth:`contains`), what
  every engine and baseline reads, since each CQ edge carries a fixed
  label,
* the bulk kernel views from the set-at-a-time execution layer
  (:meth:`adjacency` / :meth:`reverse_adjacency` / :meth:`subject_set`
  / :meth:`object_set` / :meth:`gather`),
* degree/cardinality views for the statistics catalog
  (:meth:`degree_columns`, :meth:`count`),
* node-first reads for the query miner (:meth:`out_edges` /
  :meth:`in_edges`, built on the first read after a write) and the
  full scan :meth:`triples`,
* the monotonic :attr:`epoch` counter and its per-predicate refinement
  :meth:`predicate_epoch`, which plan/result caches key their validity
  on, plus :meth:`label_degrees`, the per-node input of the catalog's
  delta maintenance, and
* :meth:`index_bytes`, the resident size of the physical indexes
  (what ``benchmarks/e2e`` reports per backend as ``index_bytes_per_triple``).

:class:`~repro.graph.store.TripleStore` is a thin facade over one
backend instance; engines, kernels, the catalog builder, and the
baselines never see a concrete layout. The contract for every view is
*set-like / mapping-like duck typing*, not concrete ``set`` / ``dict``
classes: a backend may hand back any object registered against
``collections.abc.Set`` / ``Mapping`` whose elements are term ids, as
long as it supports C-level set algebra (``&``, ``in``, iteration,
``len``) against plain sets and dict key views. Returned views are
*live* (or cheap wrappers over live storage) and must never be mutated
by callers.

Thread-safety contract: each backend has one lock, and every write
runs under it. After :meth:`freeze` (or, more generally, in the
absence of writers) every view method must be safe to call from many
threads concurrently, including a node-first read that builds its
index: the build happens under the same lock, so it never scans a
half-applied write, and is published once per :attr:`epoch`. A built
node-first index is never patched; the first read after a write
rebuilds it.
"""

from __future__ import annotations

import abc
from array import array
from itertools import chain, repeat
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Sequence,
)

import numpy as np

from repro.graph.triples import Triple

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.utils.deadline import Deadline


def _column(values: np.ndarray) -> array:
    """An ``int64`` array as an owned ``array('q')``: one memcpy."""
    column = array("q")
    column.frombytes(memoryview(np.ascontiguousarray(values, np.int64)).cast("B"))
    return column


def group_columns(keys: np.ndarray, vals: np.ndarray) -> tuple[array, array, array]:
    """Group pairs given as two ``int64`` columns, sorted by key then
    value and duplicate-free, into ``(keys, offs, vals)``.

    ``keys`` are the distinct first components in order, ``vals`` the
    concatenated runs of second components, and ``offs`` the
    ``len(keys) + 1`` prefix offsets delimiting each run — the columnar
    backend's physical layout and the snapshot segment format. The
    offsets are the run boundaries of ``keys``: a few numpy calls, no
    loop over the pairs.
    """
    n = len(keys)
    if not n:  # empty predicate: offs must still be [0]
        return array("q"), array("q", (0,)), array("q")
    starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    offs = np.concatenate(([0], starts, [n]))
    return _column(keys[offs[:-1]]), _column(offs), _column(vals)


def _pair_columns(pairs: Sequence[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """``(firsts, seconds)`` of a pair list as two ``int64`` arrays."""
    flat = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs))
    return flat[0::2], flat[1::2]


def group_pairs(pairs: Sequence[tuple[int, int]]) -> tuple[array, array, array]:
    """Group a sorted, duplicate-free pair list into (keys, offs, vals)
    (:func:`group_columns` over its two components)."""
    return group_columns(*_pair_columns(pairs))


class Segment(NamedTuple):
    """One predicate's triples as the six sorted offset-indexed columns.

    The interchange unit between backends and the snapshot layer
    (:mod:`repro.storage`): ``subs``/``offs``/``objs`` encode the
    forward (PSO) direction — ``objs[offs[i]:offs[i+1]]`` are the
    sorted successors of ``subs[i]`` — and ``robjs``/``roffs``/``rsubs``
    mirror it for the reverse (POS) direction. Columns are any
    ``array('q')``-shaped integer sequences; the mmap warm-start path
    hands in ``memoryview`` casts over on-disk bytes instead of arrays,
    and every consumer (binary search, iteration, set algebra) works
    unchanged on either.
    """

    subs: Sequence[int]
    offs: Sequence[int]
    objs: Sequence[int]
    robjs: Sequence[int]
    roffs: Sequence[int]
    rsubs: Sequence[int]

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[int, int]]) -> "Segment":
        """Build both directions from duplicate-free (s, o) pairs."""
        return cls.from_arrays(*_pair_columns(pairs))

    @classmethod
    def from_arrays(cls, subs: np.ndarray, objs: np.ndarray) -> "Segment":
        """Build both directions from duplicate-free pairs given as two
        ``int64`` columns in any order: one ``lexsort`` per direction,
        then :func:`group_columns`."""
        fwd = np.lexsort((objs, subs))
        rev = np.lexsort((subs, objs))
        return cls(
            *group_columns(subs[fwd], objs[fwd]),
            *group_columns(objs[rev], subs[rev]),
        )

    @property
    def num_pairs(self) -> int:
        return len(self.objs)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate the forward (subject, object) pairs in sorted order."""
        subs, offs, objs = self.subs, self.offs, self.objs
        for i in range(len(subs)):
            s = subs[i]
            for j in range(offs[i], offs[i + 1]):
                yield (s, objs[j])

    def check(self) -> None:
        """Cheap structural invariants; raises ``ValueError`` when broken.

        Guards the snapshot load path against truncated or transposed
        columns that happen to pass no other validation (checksums catch
        bit rot, not a manifest pointing at the wrong file).
        """
        if len(self.offs) != len(self.subs) + 1 and not (
            len(self.subs) == 0 and len(self.offs) == 1
        ):
            raise ValueError("forward offset column length mismatch")
        if len(self.roffs) != len(self.robjs) + 1 and not (
            len(self.robjs) == 0 and len(self.roffs) == 1
        ):
            raise ValueError("reverse offset column length mismatch")
        if len(self.objs) != len(self.rsubs):
            raise ValueError("forward and reverse pair counts differ")
        if self.offs[0] != 0 or self.offs[-1] != len(self.objs):
            raise ValueError("forward offsets do not span the value column")
        if self.roffs[0] != 0 or self.roffs[-1] != len(self.rsubs):
            raise ValueError("reverse offsets do not span the value column")


class StorageBackend(abc.ABC):
    """Abstract physical triple layout behind :class:`TripleStore`.

    The shipped layouts are listed in :mod:`repro.graph.backends`
    under a short :attr:`name` (``"hashdict"``, ``"columnar"``) so
    stores can be constructed with ``TripleStore(backend="columnar")``
    or via the ``REPRO_BACKEND`` environment variable.
    """

    #: Registry/reporting name of the physical layout.
    name: str = "?"

    def __init_subclass__(cls, **kwargs) -> None:
        """Propagate protocol docstrings to undocumented overrides.

        The protocol documentation lives once, on this ABC; concrete
        backends document only where their behavior *differs* (sealing
        rules, view types), and everything else inherits verbatim.
        """
        super().__init_subclass__(**kwargs)
        for attr_name, attr in vars(cls).items():
            if attr_name.startswith("_") or not callable(attr):
                continue
            if (attr.__doc__ or "").strip():
                continue
            base = getattr(StorageBackend, attr_name, None)
            if base is not None and (base.__doc__ or "").strip():
                attr.__doc__ = base.__doc__

    # -- construction ---------------------------------------------------

    @abc.abstractmethod
    def add(self, s: int, p: int, o: int) -> bool:
        """Insert ⟨s, p, o⟩; ``False`` if already present (set semantics).

        Must bump :attr:`epoch` exactly when a new triple is stored and
        keep every already-built node-first index consistent.
        """

    @abc.abstractmethod
    def add_many(
        self,
        triples: Iterable[tuple[int, int, int]],
        applied: "list | None" = None,
    ) -> int:
        """Bulk-insert; returns the number of *new* triples.

        Takes the write locks once per batch: locking per triple would
        dominate a bulk load of triples (N-Triples import, WAL replay;
        loads that hold columns write through :meth:`add_columns`
        instead). When ``applied``
        is given, ``(s, p, o, 1)`` is appended to it for every triple
        actually stored (duplicates are not reported) — the change feed
        the store's delta-maintained catalog consumes.
        """

    def add_columns(
        self,
        p: int,
        subs: np.ndarray,
        objs: np.ndarray,
        applied: "list | None" = None,
    ) -> int:
        """Bulk-insert the pairs of predicate ``p`` given as two aligned
        ``int64`` columns; returns the number of *new* triples and feeds
        ``applied`` as :meth:`add_many` does.

        The generic implementation zips the columns into one
        :meth:`add_many` batch; the columnar layout overrides it to land
        the columns without making a Python triple.
        """
        return self.add_many(zip(subs.tolist(), repeat(p), objs.tolist()), applied)

    @abc.abstractmethod
    def remove(self, s: int, p: int, o: int) -> bool:
        """Delete ⟨s, p, o⟩; ``False`` if it was not stored.

        Must bump :attr:`epoch` exactly when a triple is deleted (the
        counter ticks once per *mutation*, not per net growth) and keep
        every already-built node-first index consistent.
        """

    @abc.abstractmethod
    def remove_many(
        self,
        triples: Iterable[tuple[int, int, int]],
        applied: "list | None" = None,
    ) -> int:
        """Bulk-delete; returns the number of triples actually removed.

        Takes the write locks (and, for columnar layouts, rebuilds each
        touched predicate) once per batch. When ``applied`` is given,
        ``(s, p, o, -1)`` is appended to it for every triple actually
        deleted.
        """

    @abc.abstractmethod
    def freeze(self) -> None:
        """Make the layout immutable; further :meth:`add` is rejected
        by the facade. Backends may use this to seal/compact."""

    # -- snapshot interchange (the repro.storage persistence layer) -----

    def export_segments(self) -> Iterator[tuple[int, Segment]]:
        """Yield ``(predicate, Segment)`` for every non-empty predicate.

        The generic implementation sorts each predicate's edge list and
        groups both directions; backends whose physical layout *is*
        already sorted columns override this to hand their storage out
        without re-sorting. Yielded columns may be live storage — treat
        them as read-only and consume them before mutating the backend.
        """
        for p in self.predicates():
            pairs = sorted(self.edges(p))
            if pairs:
                yield p, Segment.from_pairs(pairs)

    def import_segments(self, segments: Iterable[tuple[int, Segment]]) -> int:
        """Bulk-load exported segments; returns the number of new triples.

        The generic implementation replays each segment's pairs through
        :meth:`add_many` (correct for any backend, deduplicating as it
        goes). Backends able to adopt the sorted columns directly —
        notably the columnar layout, for which a segment *is* the sealed
        physical representation — override this to skip re-sorting and
        re-deduplication entirely; the snapshot warm-start path depends
        on that fast path.
        """
        added = 0
        for p, seg in segments:
            added += self.add_many((s, p, o) for s, o in seg.pairs())
        return added

    # -- cardinalities --------------------------------------------------

    @property
    @abc.abstractmethod
    def epoch(self) -> int:
        """Monotonic mutation counter (one tick per stored or removed
        triple — additions and deletions both advance it)."""

    @abc.abstractmethod
    def predicate_epoch(self, p: "int | None") -> int:
        """Mutation counter of predicate ``p`` alone: one tick per
        stored or removed ``p``-triple, ``0`` for a predicate never
        written (or ``None``, an un-interned label).

        Monotonic for the life of the backend — never reset when the
        predicate empties — so equal readings prove the predicate's
        edge set did not change in between (no ABA).
        """

    @property
    @abc.abstractmethod
    def num_triples(self) -> int:
        """Total number of stored triples."""

    @abc.abstractmethod
    def nodes(self) -> AbstractSet[int]:
        """All subject/object terms (live view; do not mutate)."""

    @abc.abstractmethod
    def predicates(self) -> list[int]:
        """All distinct predicate ids, ascending."""

    @abc.abstractmethod
    def contains(self, s: int, p: int, o: int) -> bool:
        """Whether ⟨s, p, o⟩ is stored."""

    # -- predicate-first navigation (the CQ evaluation hot path) --------

    @abc.abstractmethod
    def successors(self, p: int, s: int) -> AbstractSet[int]:
        """Set-like view of objects ``o`` with ⟨s, p, o⟩ (empty if none)."""

    @abc.abstractmethod
    def predecessors(self, p: int, o: int) -> AbstractSet[int]:
        """Set-like view of subjects ``s`` with ⟨s, p, o⟩."""

    @abc.abstractmethod
    def edges(self, p: int) -> Iterator[tuple[int, int]]:
        """All (subject, object) pairs of predicate ``p``."""

    @abc.abstractmethod
    def count(self, p: int) -> int:
        """Number of triples with predicate ``p``."""

    @abc.abstractmethod
    def label_degrees(
        self, nodes: Iterable[int]
    ) -> dict[int, tuple[dict[int, int], dict[int, int]]]:
        """``node -> ({label: out-degree}, {label: in-degree})`` over
        every predicate, zero degrees omitted (a node with no edges
        maps to two empty dicts).

        One node's share of the catalog's bigram statistics is a
        function of exactly these two vectors, which is what lets a
        write patch the catalog in O(touched nodes × predicates).
        """

    # -- bulk kernel views ----------------------------------------------

    @abc.abstractmethod
    def adjacency(self, p: int) -> Mapping[int, AbstractSet[int]]:
        """Mapping-like ``subject -> {objects}`` view of predicate ``p``."""

    @abc.abstractmethod
    def reverse_adjacency(self, p: int) -> Mapping[int, AbstractSet[int]]:
        """Mapping-like ``object -> {subjects}`` view of predicate ``p``."""

    @abc.abstractmethod
    def subject_set(self, p: int) -> AbstractSet[int]:
        """Set-like view of the distinct subjects of ``p`` (no copy)."""

    @abc.abstractmethod
    def object_set(self, p: int) -> AbstractSet[int]:
        """Set-like view of the distinct objects of ``p`` (no copy)."""

    @abc.abstractmethod
    def gather(
        self,
        p: int,
        nodes: "AbstractSet[int] | None",
        far_filters: Sequence[AbstractSet[int]] = (),
        *,
        reverse: bool = False,
        self_join: bool = False,
        deadline: "Deadline | None" = None,
    ) -> tuple[dict[int, set[int]], int]:
        """One bulk edge-extension step: ``(adjacency, walks)``.

        For every node of ``nodes`` (``None``: every subject of ``p``)
        that has a ``p``-edge, the **fresh** set of its successors that
        lie in every one of ``far_filters``; a node left with none is
        dropped. ``walks`` is the number of edges retrieved — every
        ``p``-edge of the matched nodes, before any filtering — the
        paper's cost unit. ``reverse`` walks the POS direction instead
        (``nodes`` are objects, the sets hold subjects). ``self_join``
        keeps only the diagonal: ``{n: {n}}`` for a matched node that is
        its own neighbour and in every filter.

        ``nodes`` and the filters are any set-likes (plain sets, dict
        key views, this backend's own views); neither is mutated. The
        caller owns the result. ``deadline`` is polled with the walks
        (:meth:`~repro.utils.deadline.Deadline.check_every`) before the
        edges they count are copied. An unknown predicate gives
        ``({}, 0)``.
        """

    # -- node-first navigation (query mining) ---------------------------

    @abc.abstractmethod
    def triples(self) -> Iterator[Triple]:
        """Iterate over every stored triple."""

    @abc.abstractmethod
    def out_edges(self, s: int) -> Mapping[int, AbstractSet[int]]:
        """``predicate -> objects`` for edges leaving ``s`` (may
        build the SPO permutation, once per epoch)."""

    @abc.abstractmethod
    def in_edges(self, o: int) -> Mapping[int, AbstractSet[int]]:
        """``predicate -> subjects`` for edges entering ``o`` (may
        build the OPS permutation, once per epoch)."""

    # -- catalog & reporting --------------------------------------------

    def degree_columns(
        self, p: int, reverse: bool = False
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(keys, degrees)``: the distinct subjects of ``p`` and their
        out-degrees as two ``int64`` arrays (``reverse``: its objects
        and their in-degrees), paired by position in any order; empty
        for an unknown predicate.

        The catalog's whole input: ``len(keys)`` of each direction and
        ``degrees.sum()`` are the predicate's unigram, and the rows
        feed the bigram kernel. The generic implementation reads the
        adjacency views; backends with a key column and offsets
        override it. Arrays may view live storage: do not mutate them.
        """
        view = self.reverse_adjacency(p) if reverse else self.adjacency(p)
        return (
            np.fromiter(view.keys(), np.int64, len(view)),
            np.fromiter(map(len, view.values()), np.int64, len(view)),
        )

    @abc.abstractmethod
    def index_bytes(self) -> int:
        """Approximate resident bytes of the physical indexes
        (containers only — term ids are shared ``int`` objects and the
        dictionary is backend-independent, so neither is counted)."""
