"""The storage-backend protocol: one physical triple layout per class.

A :class:`StorageBackend` owns the *physical* representation of the
triple set — nested hash maps, sorted integer columns, future
memory-mapped or sharded layouts — and exposes exactly the views the
rest of the system consumes:

* pattern scans over the six SPO permutations (:meth:`match` plumbing:
  :meth:`successors` / :meth:`predecessors` / :meth:`edges` /
  :meth:`out_edges` / :meth:`in_edges` / :meth:`triples`),
* the bulk kernel views from the set-at-a-time execution layer
  (:meth:`adjacency` / :meth:`reverse_adjacency` / :meth:`subject_set`
  / :meth:`object_set` / :meth:`gather`),
* degree/cardinality summaries for the statistics catalog
  (:meth:`predicate_summaries`, :meth:`count`, :meth:`out_degree`,
  :meth:`in_degree`),
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

Thread-safety contract: after :meth:`freeze` (or, more generally, in
the absence of writers) every view method must be safe to call from
many threads concurrently, including the first, lazily-materializing
access to a secondary permutation — lazy builds happen under the
backend's own lock and are published exactly once.
"""

from __future__ import annotations

import abc
from array import array
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Sequence,
)

from repro.graph.triples import Triple

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.utils.deadline import Deadline


def group_pairs(pairs: Sequence[tuple[int, int]]) -> tuple[array, array, array]:
    """Group a sorted, duplicate-free pair list into (keys, offs, vals).

    ``keys`` are the distinct first components in order, ``vals`` the
    concatenated runs of second components, and ``offs`` the
    ``len(keys) + 1`` prefix offsets delimiting each run — the columnar
    backend's physical layout and the snapshot segment format.
    """
    keys = array("q")
    offs = array("q", (0,))
    vals = array("q")
    prev = None
    for k, v in pairs:
        if k != prev:
            if prev is not None:
                offs.append(len(vals))
            keys.append(k)
            prev = k
        vals.append(v)
    offs.append(len(vals))
    if not keys:  # empty predicate: offs must still be [0]
        return keys, array("q", (0,)), vals
    return keys, offs, vals


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
    def from_pairs(cls, pairs: list[tuple[int, int]]) -> "Segment":
        """Build both directions from sorted, duplicate-free (s, o) pairs."""
        subs, offs, objs = group_pairs(pairs)
        robjs, roffs, rsubs = group_pairs(sorted((o, s) for s, o in pairs))
        return cls(subs, offs, objs, robjs, roffs, rsubs)

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


class PredicateSummary(NamedTuple):
    """Cardinality summary of one predicate, for the stats catalog.

    ``count`` is the number of edges carrying the label;
    ``distinct_subjects`` / ``distinct_objects`` the sizes of its
    endpoint sets (hence average fan-out/fan-in).
    """

    count: int
    distinct_subjects: int
    distinct_objects: int


class StorageBackend(abc.ABC):
    """Abstract physical triple layout behind :class:`TripleStore`.

    Implementations register themselves in
    :mod:`repro.graph.backends` under a short :attr:`name` (e.g.
    ``"hashdict"``, ``"columnar"``) so stores can be constructed with
    ``TripleStore(backend="columnar")`` or via the ``REPRO_BACKEND``
    environment variable.
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
        keep every already-materialized secondary permutation
        consistent.
        """

    def add_many(
        self,
        triples: Iterable[tuple[int, int, int]],
        applied: "list | None" = None,
    ) -> int:
        """Bulk-insert; returns the number of *new* triples.

        Backends override this to amortize their per-insert locking
        over the whole batch — the dominant cost of the bulk-load path
        (dataset generation, :func:`~repro.datasets.loader.load_dataset`).
        When ``applied`` is given, ``(s, p, o, 1)`` is appended to it for
        every triple actually stored (duplicates are not reported) — the
        change feed the store's delta-maintained catalog consumes.
        """
        added = 0
        for s, p, o in triples:
            if self.add(s, p, o):
                added += 1
                if applied is not None:
                    applied.append((s, p, o, 1))
        return added

    def remove(self, s: int, p: int, o: int) -> bool:
        """Delete ⟨s, p, o⟩; ``False`` if it was not stored.

        Must bump :attr:`epoch` exactly when a triple is deleted (the
        counter ticks once per *mutation*, not per net growth) and keep
        every already-materialized secondary permutation consistent.
        The default raises: a layout without physical deletion support
        simply does not override it.
        """
        from repro.errors import StoreError

        raise StoreError(
            f"backend {self.name!r} does not support triple removal"
        )

    def remove_many(
        self,
        triples: Iterable[tuple[int, int, int]],
        applied: "list | None" = None,
    ) -> int:
        """Bulk-delete; returns the number of triples actually removed.

        Backends override this to amortize locking (and, for columnar
        layouts, per-predicate rebuilds) over the whole batch. When
        ``applied`` is given, ``(s, p, o, -1)`` is appended to it for
        every triple actually deleted.
        """
        removed = 0
        for s, p, o in triples:
            if self.remove(s, p, o):
                removed += 1
                if applied is not None:
                    applied.append((s, p, o, -1))
        return removed

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
    def has_predicate(self, p: int) -> bool:
        """Whether any triple uses predicate ``p``."""

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

    def subjects(self, p: int) -> Iterable[int]:
        """Distinct subjects of predicate ``p`` (the subject-set view)."""
        return self.subject_set(p)

    def objects(self, p: int) -> Iterable[int]:
        """Distinct objects of predicate ``p`` (the object-set view)."""
        return self.object_set(p)

    @abc.abstractmethod
    def edges(self, p: int) -> Iterator[tuple[int, int]]:
        """All (subject, object) pairs of predicate ``p``."""

    @abc.abstractmethod
    def count(self, p: int) -> int:
        """Number of triples with predicate ``p``."""

    def out_degree(self, p: int, s: int) -> int:
        """Number of ``p``-edges leaving ``s``."""
        return len(self.successors(p, s))

    def in_degree(self, p: int, o: int) -> int:
        """Number of ``p``-edges entering ``o``."""
        return len(self.predecessors(p, o))

    def label_degrees(
        self, nodes: Iterable[int]
    ) -> dict[int, tuple[dict[int, int], dict[int, int]]]:
        """``node -> ({label: out-degree}, {label: in-degree})`` over
        every predicate, zero degrees omitted (a node with no edges
        maps to two empty dicts).

        One node's share of the catalog's bigram statistics is a
        function of exactly these two vectors, which is what lets a
        write patch the catalog in O(touched nodes × predicates).
        Backends override the generic probe loop where a point degree
        lookup would do O(predicate) work (columnar sealing).
        """
        preds = self.predicates()
        return {
            n: (
                {p: d for p in preds if (d := self.out_degree(p, n))},
                {p: d for p in preds if (d := self.in_degree(p, n))},
            )
            for n in nodes
        }

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

    # -- node-first navigation (query mining / unbound-predicate scans) -

    @abc.abstractmethod
    def triples(self) -> Iterator[Triple]:
        """Iterate over every stored triple."""

    @abc.abstractmethod
    def out_edges(self, s: int) -> Mapping[int, AbstractSet[int]]:
        """``predicate -> objects`` for edges leaving ``s`` (may
        materialize the SPO permutation on first use)."""

    @abc.abstractmethod
    def in_edges(self, o: int) -> Mapping[int, AbstractSet[int]]:
        """``predicate -> subjects`` for edges entering ``o`` (may
        materialize the OPS permutation on first use)."""

    @abc.abstractmethod
    def get_permutation(self, name: str) -> Mapping:
        """The named secondary permutation (``spo``/``sop``/``osp``/
        ``ops``), materialized on first use under the backend lock.
        Raises :class:`~repro.errors.StoreError` for unknown names."""

    @abc.abstractmethod
    def materialize_all_indexes(self) -> None:
        """Eagerly build every secondary permutation (offline prep)."""

    # -- catalog & reporting --------------------------------------------

    @abc.abstractmethod
    def predicate_summaries(self) -> dict[int, PredicateSummary]:
        """Per-predicate cardinality summaries (the catalog's unigram
        input), computed from the physical indexes."""

    @abc.abstractmethod
    def index_bytes(self) -> int:
        """Approximate resident bytes of the physical indexes
        (containers only — term ids are shared ``int`` objects and the
        dictionary is backend-independent, so neither is counted)."""
