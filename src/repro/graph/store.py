"""In-memory triple store: a facade over a pluggable storage backend.

The logical model — a labeled directed multigraph of integer-interned
triples, read predicate-first because every edge of a conjunctive
query carries a fixed label — lives here; the *physical* layout lives
in a :class:`~repro.graph.backends.base.StorageBackend` chosen at
construction (``TripleStore(backend="columnar")``, the
``REPRO_BACKEND`` environment variable, or the ``columnar`` default).
Engines, kernels, the catalog builder, and the baselines only ever see
the store's protocol views, so the two layouts (nested hash maps and
sorted integer columns) are drop-in swaps instead of engine rewrites.

All terms are integers interned through an attached
:class:`~repro.graph.dictionary.Dictionary`. Duplicate triples are
ignored (RDF set semantics).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, AbstractSet, Iterable, Iterator, Mapping, Sequence

from repro.errors import StoreError

if TYPE_CHECKING:  # pragma: no cover - import cycle (stats imports store)
    import numpy as np

    from repro.stats.catalog import Catalog
    from repro.utils.deadline import Deadline
from repro.graph.backends import StorageBackend, create_backend
from repro.graph.dictionary import Dictionary, DictionaryView
from repro.graph.triples import Triple


class TripleStore:
    """A labeled directed multigraph of interned triples.

    Parameters
    ----------
    dictionary:
        Shared term dictionary; a fresh (eager, mutable)
        :class:`~repro.graph.dictionary.Dictionary` is created when
        omitted. Any :class:`~repro.graph.dictionary.DictionaryView`
        is accepted — a snapshot warm start hands in the lazy
        :class:`~repro.storage.termdict.MmapDictionary`, which decodes
        terms on demand and refuses new interning (the store arrives
        frozen anyway).
    backend:
        Physical layout: a registered backend name (``"hashdict"``,
        ``"columnar"``), a ready :class:`StorageBackend` instance, or
        ``None`` for the ``REPRO_BACKEND``/default selection.

    >>> store = TripleStore()
    >>> _ = store.add_term_triple("alice", "knows", "bob")
    >>> a, k, b = (store.dictionary.lookup(t) for t in ("alice", "knows", "bob"))
    >>> sorted(store.successors(k, a)) == [b]
    True
    """

    def __init__(
        self,
        dictionary: DictionaryView | None = None,
        backend: StorageBackend | str | None = None,
    ):
        self.dictionary: DictionaryView = (
            dictionary if dictionary is not None else Dictionary()
        )
        if isinstance(backend, StorageBackend):
            self._backend = backend
        else:
            self._backend = create_backend(backend)
        self._frozen = False
        # (epoch, catalog) as of the last catalog() call, and the
        # triples actually stored/deleted since: epoch + len(pending)
        # equals the backend epoch exactly when nothing bypassed the
        # facade, which is when the memo may be patched, not rebuilt.
        self._catalog_memo: "tuple[int, Catalog] | None" = None
        self._pending: list[tuple[int, int, int, int]] = []
        #: How each catalog refresh was served — ``"delta"`` (memo
        #: patched from the pending changes) or ``"full"`` (rebuilt).
        self.catalog_refreshes = {"full": 0, "delta": 0}
        # Serializes the whole logical write path (journal + backend
        # mutation) across threads; also what persist()/compaction take
        # for an epoch-stable view. Reentrant so a caller may pin an
        # epoch across several batches.
        self._write_lock = threading.RLock()
        self._write_log = None

    @property
    def backend(self) -> StorageBackend:
        """The physical storage layout behind this store."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Registry name of the active backend (``"hashdict"``, ...)."""
        return self._backend.name

    # ------------------------------------------------------------------
    # Write-path plumbing (durability hook + cross-thread serialization)
    # ------------------------------------------------------------------

    @property
    def write_lock(self) -> threading.RLock:
        """The lock every mutation runs under.

        Holding it pins the :attr:`epoch`: no add/remove can interleave,
        which is how ``DurableStore.persist()`` and WAL compaction obtain an
        epoch-stable view without racing writers.
        """
        return self._write_lock

    @property
    def write_log(self):
        """The attached write-log hook, or ``None`` (see
        :class:`~repro.storage.wal.WalWriteHook`)."""
        return self._write_log

    def attach_write_log(self, hook) -> None:
        """Journal every subsequent add/remove batch through ``hook``.

        The hook's ``journal(adds, removes)`` runs under
        :attr:`write_lock` *before* the backend mutates — write-ahead
        ordering: a batch the backend applied is always already durable
        (or in flight) in the log, never the other way round.
        """
        with self._write_lock:
            if self._write_log is not None:
                raise StoreError("store already has a write log attached")
            self._write_log = hook

    def detach_write_log(self):
        """Stop journaling; returns the previously attached hook."""
        with self._write_lock:
            hook, self._write_log = self._write_log, None
            return hook

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add(self, s: int, p: int, o: int) -> bool:
        """Insert the triple ⟨s, p, o⟩; returns ``False`` if already present."""
        if self._frozen:
            raise StoreError("store is frozen; cannot add triples")
        return self._write(((s, p, o),), ()) == 1

    def add_triples(self, triples: Iterable[tuple[int, int, int]]) -> int:
        """Bulk-insert; returns the number of *new* triples.

        Prefer this (or :meth:`add_term_triples`) for bulk loads: the
        backend amortizes its write locking over the whole batch, and a
        write log journals the batch as one record (one fsync).
        """
        if self._frozen:
            raise StoreError("store is frozen; cannot add triples")
        return self._write(triples, ())

    def add_term_triple(self, s: str, p: str, o: str) -> bool:
        """Insert a triple of raw strings, interning them first."""
        if self._frozen:
            raise StoreError("store is frozen; cannot add triples")
        with self._write_lock:
            enc = self.dictionary.encode
            return self._write(((enc(s), enc(p), enc(o)),), ()) == 1

    def add_term_triples(self, triples: Iterable[tuple[str, str, str]]) -> int:
        """Bulk string-triple insert; returns the number of new triples."""
        if self._frozen:
            raise StoreError("store is frozen; cannot add triples")
        with self._write_lock:
            enc = self.dictionary.encode
            return self._write(
                ((enc(s), enc(p), enc(o)) for s, p, o in triples), ()
            )

    def remove(self, s: int, p: int, o: int) -> bool:
        """Delete the triple ⟨s, p, o⟩; ``False`` if it was not stored."""
        if self._frozen:
            raise StoreError("store is frozen; cannot remove triples")
        return self._write((), ((s, p, o),)) == 1

    def remove_triples(self, triples: Iterable[tuple[int, int, int]]) -> int:
        """Bulk-delete; returns the number of triples actually removed."""
        if self._frozen:
            raise StoreError("store is frozen; cannot remove triples")
        return self._write((), triples)

    def _write(self, adds, removes) -> int:
        """Journal one batch (write-ahead), then apply it; returns the
        number of triples actually stored or deleted."""
        with self._write_lock:
            if self._write_log is not None:
                adds = [tuple(t) for t in adds]
                removes = [tuple(t) for t in removes]
                self._write_log.journal(adds, removes)
            return self.apply_unjournaled(adds, removes)

    def apply_unjournaled(self, adds=(), removes=()) -> int:
        """Apply a batch to the backend *without* journaling it.

        The tail of every facade write, and the whole of WAL replay
        (whose records are already in the log). While a catalog memo is
        alive, the backend reports each triple it actually stored or
        deleted into the pending-change list :meth:`catalog` patches the
        memo from; if that list outgrows :meth:`_delta_limit` the memo
        is dropped instead (the next :meth:`catalog` rebuilds), so the
        list never holds more than a bounded slice of the store.
        """
        with self._write_lock:
            memo = self._catalog_memo
            applied = self._pending if memo is not None else None
            changed = self._backend.add_many(adds, applied) if adds else 0
            if removes:
                changed += self._backend.remove_many(removes, applied)
            if memo is not None and len(applied) > self._delta_limit():
                self._catalog_memo = None
                self._pending = []
            return changed

    def _delta_limit(self) -> int:
        """Most pending changes worth patching rather than rebuilding.

        A patch probes every predicate for each touched endpoint's
        degrees and builds its rows in Python; a rebuild is one
        vectorized pass over the degree columns. On the benchmark
        fixture (175,624 triples; 2-CPU x86 box) a rebuild took 43 ms on
        hashdict and 30 ms on columnar, and a patch 40-190 us per change
        on hashdict and 140-370 us on columnar (then two binary
        searches per predicate per endpoint; one ``searchsorted`` per
        key column since took a 16-add patch over random endpoints from
        7-9 to 6.2 ms), the more for endpoints that already carry many
        labels: break-even between about 80 and 1,000 changes.
        ``num_triples // 512`` is 343 there.
        """
        return max(_MIN_DELTA_LIMIT, self._backend.num_triples // 512)

    def remove_term_triple(self, s: str, p: str, o: str) -> bool:
        """Delete a triple of raw strings; ``False`` if any term is
        unknown or the triple was not stored (nothing is interned)."""
        if self._frozen:
            raise StoreError("store is frozen; cannot remove triples")
        lookup = self.dictionary.lookup
        ids = (lookup(s), lookup(p), lookup(o))
        if None in ids:
            return False
        return self.remove(*ids)

    def freeze(self) -> None:
        """Make the store (and its dictionary) immutable.

        The backend gets to seal/compact its physical layout; reads on
        a frozen store are lock-free and safe from any thread.
        """
        self._frozen = True
        self.dictionary.freeze()
        self._backend.freeze()

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def epoch(self) -> int:
        """Mutation counter: one tick per added *or* removed triple.

        Two reads returning the same epoch guarantee the store content
        did not change in between — the shortcut by which the service's
        caches skip their per-predicate check (:meth:`predicate_epoch`,
        what entries are actually valid by). Owned by the backend (the
        layer that actually stores the triple).
        """
        return self._backend.epoch

    def predicate_epoch(self, p: "int | None") -> int:
        """Mutation counter of predicate ``p`` alone (``0`` for a label
        never written, or ``None``). Monotonic — never reset when the
        predicate empties — so equal readings prove ``p``'s edge set is
        unchanged: what the service's caches stamp entries with."""
        return self._backend.predicate_epoch(p)

    def catalog(self) -> "Catalog":
        """The store's statistics catalog, current as of this call.

        Every engine constructed without an explicit catalog shares this
        memoized instance instead of silently recomputing
        :func:`~repro.stats.catalog.build_catalog` — on large graphs the
        rebuild dwarfs the query itself. A write does not throw the memo
        away: the triples it actually changed are queued, and the next
        call drains the queue under :attr:`write_lock` and patches them
        into a new frozen catalog (:func:`~repro.stats.catalog.patch_catalog`,
        cost proportional to the batch, result ``==`` a from-scratch
        build). A full build runs only when there is no memo yet, more
        changes are pending than a patch is worth, or the backend was
        mutated behind the facade.
        Either way the refresh is single-flight: concurrent callers
        after a write wait for one build and share it.
        """
        memo = self._catalog_memo
        if memo is not None and memo[0] == self._backend.epoch:
            return memo[1]
        from repro.stats.catalog import build_catalog, patch_catalog

        with self._write_lock:
            memo = self._catalog_memo
            epoch = self._backend.epoch
            pending = self._pending
            if memo is not None and memo[0] == epoch:
                return memo[1]
            if memo is not None and memo[0] + len(pending) == epoch:
                touched = {c[0] for c in pending}
                touched.update(c[2] for c in pending)
                catalog = patch_catalog(
                    memo[1], pending, self._backend.label_degrees(touched)
                )
                self.catalog_refreshes["delta"] += 1
            else:
                catalog = build_catalog(self)
                self.catalog_refreshes["full"] += 1
            self._pending = []
            self._catalog_memo = (epoch, catalog)
            return catalog

    def seed_catalog(self, catalog: "Catalog") -> None:
        """Adopt ``catalog`` as the memo for the store's *current*
        contents (e.g. the one persisted beside a snapshot), so later
        writes — WAL replay included — patch it instead of forcing a
        full rebuild. The caller vouches that it matches the store."""
        with self._write_lock:
            self._pending = []
            self._catalog_memo = (self._backend.epoch, catalog)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._backend.num_triples

    @property
    def num_triples(self) -> int:
        return self._backend.num_triples

    @property
    def num_nodes(self) -> int:
        """Number of distinct terms occurring in subject or object position."""
        return len(self._backend.nodes())

    def nodes(self) -> AbstractSet[int]:
        """The set of all subject/object terms (a copy is NOT made)."""
        return self._backend.nodes()

    def predicates(self) -> list[int]:
        """All distinct predicate ids, ascending."""
        return self._backend.predicates()

    def __contains__(self, triple: tuple[int, int, int]) -> bool:
        s, p, o = triple
        return self._backend.contains(s, p, o)

    # ------------------------------------------------------------------
    # Predicate-first navigation (the hot path for CQ evaluation)
    # ------------------------------------------------------------------

    def successors(self, p: int, s: int) -> AbstractSet[int]:
        """Objects ``o`` with ⟨s, p, o⟩ in the store (empty set if none).

        The returned set-like view is live index state — callers must
        not mutate it.
        """
        return self._backend.successors(p, s)

    def predecessors(self, p: int, o: int) -> AbstractSet[int]:
        """Subjects ``s`` with ⟨s, p, o⟩ in the store (empty set if none)."""
        return self._backend.predecessors(p, o)

    def edges(self, p: int) -> Iterator[tuple[int, int]]:
        """All (subject, object) pairs of predicate ``p``."""
        return self._backend.edges(p)

    def count(self, p: int) -> int:
        """Number of triples with predicate ``p``."""
        return self._backend.count(p)

    # ------------------------------------------------------------------
    # Bulk accessors (the set-at-a-time kernel interface)
    #
    # These hand back *live* internal index views without copying; the
    # kernels in repro.core.kernels copy (or intersect into fresh sets)
    # exactly once, on their own terms. Callers must never mutate what
    # these return.
    # ------------------------------------------------------------------

    def adjacency(self, p: int) -> Mapping[int, AbstractSet[int]]:
        """The live ``subject -> {objects}`` index of predicate ``p``."""
        return self._backend.adjacency(p)

    def reverse_adjacency(self, p: int) -> Mapping[int, AbstractSet[int]]:
        """The live ``object -> {subjects}`` index of predicate ``p``."""
        return self._backend.reverse_adjacency(p)

    def subject_set(self, p: int) -> AbstractSet[int]:
        """Set-like view of the distinct subjects of ``p`` (no copy)."""
        return self._backend.subject_set(p)

    def object_set(self, p: int) -> AbstractSet[int]:
        """Set-like view of the distinct objects of ``p`` (no copy)."""
        return self._backend.object_set(p)

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
        """One bulk extension step over predicate ``p``: for each node
        of ``nodes`` (``None``: all) with a ``p``-edge, the fresh set of
        its neighbours that are in every one of ``far_filters``, and the
        number of edges retrieved before filtering. See
        :meth:`StorageBackend.gather
        <repro.graph.backends.base.StorageBackend.gather>`.
        """
        return self._backend.gather(
            p,
            nodes,
            far_filters,
            reverse=reverse,
            self_join=self_join,
            deadline=deadline,
        )

    # ------------------------------------------------------------------
    # Node-first navigation (used by the query miner's random walks)
    # ------------------------------------------------------------------

    def triples(self) -> Iterator[Triple]:
        """Iterate over every triple in the store."""
        return self._backend.triples()

    def out_edges(self, s: int) -> Mapping[int, AbstractSet[int]]:
        """Map ``predicate -> objects`` for all edges leaving node ``s``.

        Builds the SPO permutation on the first read after a write
        (once per epoch). The returned mapping is index state as of
        that epoch, not patched by later writes — do not mutate.
        """
        return self._backend.out_edges(s)

    def in_edges(self, o: int) -> Mapping[int, AbstractSet[int]]:
        """Map ``predicate -> subjects`` for all edges entering ``o``.

        Builds the OPS permutation on the first read after a write
        (once per epoch).
        """
        return self._backend.in_edges(o)

    def labels_between(self, s: int, o: int) -> list[int]:
        """All predicates ``p`` with ⟨s, p, o⟩ in the store."""
        return [p for p, objs in self.out_edges(s).items() if o in objs]

    # ------------------------------------------------------------------
    # Catalog & reporting hooks
    # ------------------------------------------------------------------

    def degree_columns(
        self, p: int, reverse: bool = False
    ) -> "tuple[np.ndarray, np.ndarray]":
        """The distinct subjects of ``p`` and their out-degrees (objects
        and in-degrees if ``reverse``) as two ``int64`` arrays: the stats
        catalog's input. See :meth:`StorageBackend.degree_columns
        <repro.graph.backends.base.StorageBackend.degree_columns>`."""
        return self._backend.degree_columns(p, reverse)

    def index_bytes(self) -> int:
        """Approximate resident bytes of the backend's physical indexes."""
        return self._backend.index_bytes()

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"TripleStore({self.num_triples} triples, {self.num_nodes} nodes, "
            f"{len(self.predicates())} predicates, "
            f"backend={self.backend_name})"
        )


#: Floor of :meth:`TripleStore._delta_limit`, so small stores still
#: patch ordinary write batches.
_MIN_DELTA_LIMIT = 256
