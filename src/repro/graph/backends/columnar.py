"""Dictionary-encoded columnar storage backend.

Triples are already integer-encoded by the shared
:class:`~repro.graph.dictionary.Dictionary`; this backend stores them
as **sorted ``array('q')`` runs per predicate with offset indexes**
instead of nested hash maps:

* ``subs``  — sorted distinct subjects of the predicate,
* ``offs``  — ``len(subs) + 1`` prefix offsets into ``objs``,
* ``objs``  — concatenated sorted object runs (``objs[offs[i]:offs[i+1]]``
  are the successors of ``subs[i]``),

plus the mirrored ``robjs`` / ``roffs`` / ``rsubs`` triple for the
reverse (POS) direction. At 8 bytes per stored id this is a fraction
of the dict-of-sets footprint (a CPython ``set`` spends ~60+ bytes per
element in table slots and boxed ints), which is the point: the
columnar layout trades pointer-chasing hash lookups for binary search
and **galloping/merge intersection** over contiguous buffers.

The kernel views (:class:`ColumnarAdjacency`, :class:`SortedRun`) duck
type as ``Mapping[int, AbstractSet[int]]`` / ``AbstractSet[int]``:
``run & other`` dispatches to galloping intersection (one
``searchsorted`` for long runs) when both sides are sorted runs and to
size-ordered hash probing otherwise. That scalar algebra serves point
reads; a whole extension step is :meth:`ColumnarBackend.gather`,
column-at-a-time over zero-copy ``numpy`` views of the same buffers —
one interpreted call per step, not one per value run (MonetDB/X100's
argument, Boncz et al., CIDR 2005).

Writes land per predicate group of a batch, by one rule with no tuning
constant: a group at least as large as what its predicate holds
(sealed plus staged; nothing, for a new predicate) is merged with the
held pairs, deduplicated by one stable ``lexsort`` and sealed at once;
a smaller group is staged (plain dict-of-sets) triple by triple and
sealed on the first read touching the predicate. A merge sorts at most
twice the group it lands, so a bulk load costs numpy time in
proportion to what it writes however it is batched, while a 16-triple
write onto a predicate of thousands stays a set insert per triple.
One ``add_triples`` of the 175,624-triple benchmark fixture took
0.42-0.55 s staged per triple and takes 0.10-0.11 s; generating that
fixture, 0.52-0.63 s and now 0.26-0.27 s (medians of 5, 2-CPU Xeon,
CPython 3.11, numpy 2.4).

Interleaving writes with reads re-seals the touched predicate on every
read, so a write costs numpy time, not interpreter time per stored
pair, by the same X100 argument: a seal expands the key column by its
run lengths beside the values, appends the staged pairs, and takes
each direction's columns from one ``lexsort`` and its run boundaries;
a removal masks the hit positions out of both directions (dropping
pairs keeps them sorted); a catalog patch reads degrees off the
offsets after one ``searchsorted`` of the touched nodes per key
column. Re-sealing a predicate of 1k / 5k / 20k pairs after a 16-pair
add took 1.3 / 8.9 / 47 ms with a per-pair Python loop and
``list.sort``, and takes 0.33 / 1.9 / 7.4 ms; removing 16 sealed
pairs, 1.4 / 9.1 / 48 ms then and 0.23 / 0.44 / 0.95 ms now (same
machine).
"""

from __future__ import annotations

import sys
import threading
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from collections.abc import Mapping, Set, Sized
from itertools import chain, repeat
from typing import Iterator

import numpy as np

from repro.graph.backends.base import (
    Segment,
    StorageBackend,
    group_columns,
)
from repro.graph.backends.permutations import LazyPermutations
from repro.graph.triples import Triple

_EMPTY_DICT: dict = {}
_EMPTY_ARRAY = array("q")
_EMPTY_INT64 = np.zeros(0, np.int64)
_EMPTY_INT64.flags.writeable = False

#: Size ratio beyond which run∩run intersection gallops (binary search
#: per probe element) instead of linear merging. 8 keeps the crossover
#: near the classic ``m log n < m + n`` break-even.
GALLOP_RATIO = 8

#: Run∩run intersection stays a Python merge/gallop while the smaller
#: run has at most this many elements; above it one ``searchsorted`` of
#: the smaller run into the larger is cheaper than the interpreter, below
#: it numpy's fixed cost per call (~5 us for the five calls) is not.
VECTOR_RUN = 8

#: :meth:`ColumnarBackend.gather` looks up at most this many candidate
#: nodes by ``bisect`` — an anchored step, where numpy's fixed cost per
#: call exceeds the whole lookup.
SCALAR_NODES = 4


def intersect_sorted(
    a, alo: int, ahi: int, b, blo: int, bhi: int
) -> list[int]:
    """Intersection of two sorted integer runs, as an ascending list.

    Chooses between a linear merge (similar sizes) and a **galloping**
    probe — each element of the smaller run binary-searched in the
    steadily shrinking remainder of the larger — when one side is
    :data:`GALLOP_RATIO` times the other. Either way the work is
    ``O(min + log·max)``-ish, never a full rescan of the larger run.
    """
    out: list[int] = []
    la, lb = ahi - alo, bhi - blo
    if la <= 0 or lb <= 0:
        return out
    if la > lb:  # keep a the smaller side
        a, alo, ahi, b, blo, bhi, la, lb = b, blo, bhi, a, alo, ahi, lb, la
    if la * GALLOP_RATIO < lb:
        lo = blo
        append = out.append
        for i in range(alo, ahi):
            x = a[i]
            lo = bisect_left(b, x, lo, bhi)
            if lo >= bhi:
                break
            if b[lo] == x:
                append(x)
                lo += 1
        return out
    i, j = alo, blo
    append = out.append
    while i < ahi and j < bhi:
        x = a[i]
        y = b[j]
        if x == y:
            append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return out


def _member_mask(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Which of ``needles`` occur in the sorted, non-empty ``haystack``."""
    idx = np.searchsorted(haystack, needles)
    np.minimum(idx, len(haystack) - 1, out=idx)
    return haystack[idx] == needles


def _intersect_runs(a: "SortedRun", b: "SortedRun") -> list[int]:
    """``a & b`` as an ascending list: vectorized above
    :data:`VECTOR_RUN`, :func:`intersect_sorted` below."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) <= VECTOR_RUN:
        return intersect_sorted(a._arr, a._lo, a._hi, b._arr, b._lo, b._hi)
    small = a.array()
    return small[_member_mask(b.array(), small)].tolist()


class SortedRun(Set):
    """Set-like view over one sorted slice of an ``array('q')``.

    Supports the full C-level set algebra the kernels rely on —
    ``in`` (binary search), ``&`` (galloping/merge against another run,
    size-ordered probing against hash sets and dict key views), ``==``
    against any set, iteration, ``len`` — without ever copying the
    underlying column. ``set(run)`` materializes a plain set when a
    caller needs an owned, mutable copy.
    """

    __slots__ = ("_arr", "_lo", "_hi")

    def __init__(self, arr, lo: int, hi: int) -> None:
        self._arr = arr
        self._lo = lo
        self._hi = hi

    def __len__(self) -> int:
        return self._hi - self._lo

    def __iter__(self) -> Iterator[int]:
        # An array slice is one C memcpy; iterating it afterwards stays
        # out of __getitem__ dispatch.
        return iter(self._arr[self._lo : self._hi])

    def __contains__(self, x) -> bool:
        i = bisect_left(self._arr, x, self._lo, self._hi)
        return i < self._hi and self._arr[i] == x

    def array(self) -> np.ndarray:
        """The run as a zero-copy ``int64`` view of its column."""
        return np.frombuffer(self._arr, dtype=np.int64)[self._lo : self._hi]

    @classmethod
    def _from_iterable(cls, it) -> set:
        # Derived sets (|, -, ^, default &) are plain mutable sets.
        return set(it)

    def __and__(self, other):
        if isinstance(other, SortedRun):
            return set(_intersect_runs(self, other))
        if not isinstance(other, Set) and not isinstance(other, (set, frozenset)):
            return NotImplemented
        # Probe from the smaller side: bisect into the run, hash into
        # the set — both sub-linear in the larger side.
        if len(self) <= len(other):
            return {x for x in self if x in other}
        return {x for x in other if x in self}

    __rand__ = __and__

    def isdisjoint(self, other) -> bool:
        if isinstance(other, SortedRun):
            if (
                self._lo >= self._hi
                or other._lo >= other._hi
                or self._arr[self._hi - 1] < other._arr[other._lo]
                or other._arr[other._hi - 1] < self._arr[self._lo]
            ):
                return True
            return not _intersect_runs(self, other)
        if not isinstance(other, Sized):
            other = set(other)
        if len(self) <= len(other):
            return not any(x in other for x in self)
        return not any(x in self for x in other)

    def __le__(self, other) -> bool:
        if not isinstance(other, SortedRun):
            return super().__le__(other)
        n = len(self)
        if n > len(other):
            return False
        if not n:
            return True
        mine, theirs = self.array(), other.array()
        if mine[0] < theirs[0] or mine[-1] > theirs[-1]:
            return False
        # Growing blocks: where some element is missing, one is usually
        # missing near the front, and the pass stops at that block.
        lo, step = 0, 64
        while lo < n:
            if not _member_mask(theirs, mine[lo : lo + step]).all():
                return False
            lo += step
            step *= 4
        return True

    def __eq__(self, other) -> bool:
        if isinstance(other, SortedRun):
            return self._arr[self._lo : self._hi] == other._arr[other._lo : other._hi]
        if isinstance(other, (set, frozenset)) or isinstance(other, Set):
            return len(self) == len(other) and all(x in other for x in self)
        return NotImplemented

    __hash__ = None  # mutable-set convention: runs are views, not keys

    def __repr__(self) -> str:
        return f"SortedRun({list(self)!r})"


class _RunsView:
    """Iterable-with-length over ``(key, run)`` items or runs alone."""

    __slots__ = ("_adj", "_mode")

    def __init__(self, adj: "ColumnarAdjacency", mode: str) -> None:
        self._adj = adj
        self._mode = mode

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self):
        adj = self._adj
        keys, offs, vals = adj._keys, adj._offs, adj._vals
        if self._mode == "items":
            return (
                (keys[i], SortedRun(vals, offs[i], offs[i + 1]))
                for i in range(len(keys))
            )
        return (
            SortedRun(vals, offs[i], offs[i + 1]) for i in range(len(keys))
        )


class ColumnarAdjacency(Mapping):
    """Mapping-like ``key -> SortedRun`` view over one column triple.

    ``keys()`` hands back the sorted key column itself as a
    :class:`SortedRun` (set-like, zero-copy); ``items()`` / ``values()``
    iterate runs lazily. Lookups are binary searches over the key
    column.
    """

    __slots__ = ("_keys", "_offs", "_vals")

    def __init__(self, keys, offs, vals) -> None:
        self._keys = keys
        self._offs = offs
        self._vals = vals

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys)

    def __contains__(self, k) -> bool:
        keys = self._keys
        i = bisect_left(keys, k)
        return i < len(keys) and keys[i] == k

    def __getitem__(self, k) -> SortedRun:
        keys = self._keys
        i = bisect_left(keys, k)
        if i == len(keys) or keys[i] != k:
            raise KeyError(k)
        return SortedRun(self._vals, self._offs[i], self._offs[i + 1])

    def get(self, k, default=None):
        keys = self._keys
        i = bisect_left(keys, k)
        if i == len(keys) or keys[i] != k:
            return default
        return SortedRun(self._vals, self._offs[i], self._offs[i + 1])

    def keys(self) -> SortedRun:
        return SortedRun(self._keys, 0, len(self._keys))

    def items(self) -> _RunsView:
        return _RunsView(self, "items")

    def values(self) -> _RunsView:
        return _RunsView(self, "values")

    def __eq__(self, other) -> bool:
        if isinstance(other, ColumnarAdjacency):
            return (
                self._keys == other._keys
                and self._offs == other._offs
                and self._vals == other._vals
            )
        if isinstance(other, Mapping) or isinstance(other, dict):
            if len(self) != len(other):
                return False
            return all(
                k in other and run == other[k] for k, run in self.items()
            )
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"ColumnarAdjacency({len(self)} keys, {len(self._vals)} pairs)"


class _Columns:
    """Sealed per-predicate storage: forward and reverse column triples.

    Built from a :class:`Segment`, whose columns it adopts verbatim
    (zero-copy): ``array('q')`` instances when sealed in memory and
    read-only ``memoryview('q')`` casts over a mapped snapshot file on
    the mmap warm-start path — every consumer (binary search, slicing,
    iteration, the :class:`SortedRun` set algebra) is indifferent to
    which. Sealing and removal derive a new instance from
    :meth:`pair_arrays` with a few numpy calls; nothing loops over the
    stored pairs."""

    __slots__ = ("subs", "offs", "objs", "robjs", "roffs", "rsubs", "_arrays")

    def __init__(self, seg: Segment) -> None:
        self.subs, self.offs, self.objs = seg.subs, seg.offs, seg.objs
        self.robjs, self.roffs, self.rsubs = seg.robjs, seg.roffs, seg.rsubs
        self._arrays = None

    def to_segment(self) -> Segment:
        return Segment(
            self.subs, self.offs, self.objs, self.robjs, self.roffs, self.rsubs
        )

    def pairs(self) -> Iterator[tuple[int, int]]:
        subs, offs, objs = self.subs, self.offs, self.objs
        for i in range(len(subs)):
            s = subs[i]
            for j in range(offs[i], offs[i + 1]):
                yield (s, objs[j])

    def pair_arrays(self, reverse: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """One direction's pairs as two aligned ``int64`` columns, in
        its sorted order: the keys repeated by their run lengths, beside
        the value column itself."""
        keys, offs, vals = self.arrays(reverse)
        return np.repeat(keys, np.diff(offs)), vals

    def position(self, s: int, o: int) -> tuple[int, int] | None:
        """Where the pair ``(s, o)`` sits in the forward and the reverse
        value column, or ``None`` if it is not stored."""
        run = self.run_of(s)
        if run is None:
            return None
        j = bisect_left(self.objs, o, run._lo, run._hi)
        if j == run._hi or self.objs[j] != o:
            return None
        run = self.reverse_run_of(o)
        return j, bisect_left(self.rsubs, s, run._lo, run._hi)

    def without(self, fwd_pos, rev_pos) -> "_Columns | None":
        """These columns minus the pairs at the given positions (as
        :meth:`position` reports them), ``None`` when none are left.
        Dropping pairs keeps both directions sorted: one boolean mask
        per direction, no sort."""
        if len(fwd_pos) == len(self.objs):
            return None
        columns = []
        for reverse, positions in ((False, fwd_pos), (True, rev_pos)):
            keys, vals = self.pair_arrays(reverse)
            keep = np.ones(len(vals), np.bool_)
            keep[list(positions)] = False
            columns.extend(group_columns(keys[keep], vals[keep]))
        return _Columns(Segment(*columns))

    def forward(self) -> ColumnarAdjacency:
        return ColumnarAdjacency(self.subs, self.offs, self.objs)

    def backward(self) -> ColumnarAdjacency:
        return ColumnarAdjacency(self.robjs, self.roffs, self.rsubs)

    def run_of(self, s: int) -> SortedRun | None:
        subs = self.subs
        i = bisect_left(subs, s)
        if i == len(subs) or subs[i] != s:
            return None
        return SortedRun(self.objs, self.offs[i], self.offs[i + 1])

    def reverse_run_of(self, o: int) -> SortedRun | None:
        robjs = self.robjs
        i = bisect_left(robjs, o)
        if i == len(robjs) or robjs[i] != o:
            return None
        return SortedRun(self.rsubs, self.roffs[i], self.roffs[i + 1])

    def arrays(self, reverse: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, offs, vals)`` of one direction as zero-copy ``int64``
        views of the columns, made once per sealed predicate. They live
        and die with these columns (nothing :meth:`ColumnarBackend.gather`
        returns refers to them) and wrap no storage of their own, so
        :meth:`index_bytes` leaves them out."""
        arrays = self._arrays
        if arrays is None:
            arrays = self._arrays = tuple(
                np.frombuffer(column, dtype=np.int64) for column in self.to_segment()
            )
        return arrays[3:] if reverse else arrays[:3]

    def index_bytes(self) -> int:
        return sum(map(sys.getsizeof, self.to_segment()))


_EMPTY_RUN = SortedRun(_EMPTY_ARRAY, 0, 0)


def _sorted_array(nodes) -> np.ndarray:
    """Any set-like of node ids as an ascending ``int64`` array."""
    if isinstance(nodes, SortedRun):
        return nodes.array()
    out = np.fromiter(nodes, np.int64, len(nodes))
    out.sort()
    return out


def _membership(far: np.ndarray, view) -> np.ndarray:
    """Which elements of ``far`` are in the non-empty set-like ``view``."""
    if not isinstance(view, SortedRun) and len(view) > len(far):
        # A hash set that dwarfs the step: probed, not sorted.
        return np.fromiter(map(view.__contains__, far.tolist()), np.bool_, len(far))
    return _member_mask(_sorted_array(view), far)


def _scalar_buckets(runs, far_filters, self_join: bool) -> dict[int, set[int]]:
    """:meth:`ColumnarBackend.gather`'s adjacency over ``(node, its
    SortedRun)`` pairs, one :class:`SortedRun` intersection per run and
    filter (each probes from its smaller side)."""
    out: dict[int, set[int]] = {}
    for node, run in runs:
        if self_join:
            if node in run and all(node in view for view in far_filters):
                out[node] = {node}
            continue
        keep = None
        for view in far_filters:
            keep = run & view if keep is None else view & keep
            if not keep:
                break
        if keep is None:
            keep = set(run)
        if keep:
            out[node] = keep
    return out


class ColumnarBackend(StorageBackend):
    """Triples as per-predicate sorted integer columns."""

    name = "columnar"

    def __init__(self) -> None:
        #: Sealed sorted-array storage, one `_Columns` per predicate.
        self._cols: dict[int, _Columns] = {}
        #: Unsealed writes: predicate -> subject -> {objects}.
        self._staged: dict[int, dict[int, set[int]]] = {}
        self._perms = LazyPermutations()
        #: The one lock: writes, seals, predicates(), nodes(),
        #: label_degrees() and node-first builds. Reentrant, as a build
        #: scans triples(), which seals.
        self._seal_lock = threading.RLock()
        self._size = 0
        self._nodes: set[int] = set()
        #: Endpoints of removed pairs; nodes() decides which are gone.
        self._maybe_gone: set[int] = set()
        #: Endpoint columns adopted by :meth:`import_segments` whose
        #: union into ``_nodes`` is deferred to the first :meth:`nodes`
        #: call — a snapshot warm start stays O(1) in node count.
        self._pending_nodes: list = []
        self._epoch = 0
        self._pred_epoch: defaultdict[int, int] = defaultdict(int)

    # -- construction ---------------------------------------------------

    def add(self, s: int, p: int, o: int) -> bool:
        # The lock makes the staging mutation atomic with respect to a
        # reader-triggered seal, which would otherwise drop a triple
        # staged mid-merge.
        with self._seal_lock:
            return self._stage_locked(p, ((s, o),)) == 1

    def add_many(self, triples, applied=None) -> int:
        """Group the batch by predicate, then land each group one of two
        ways. A group at least as large as what its predicate holds is
        merged with the held pairs and sealed at once
        (:meth:`_merge_locked`, which sorts at most twice the group); a
        smaller one is staged triple by triple. A group is two lists of
        ints, which the collector does not track. Grouping the 175,624
        triples of the benchmark fixture so took 39-54 ms, against
        29-43 ms for an ``argsort`` of them as one array, but a
        16-triple write 2 us against 13-19 us: it leaves the small
        writes the cost they had."""
        groups: dict[int, tuple[list[int], list[int]]] = {}
        for s, p, o in triples:
            group = groups.get(p)
            if group is None:
                group = groups[p] = ([], [])
            group[0].append(s)
            group[1].append(o)
        added = 0
        with self._seal_lock:
            for p, (subs, objs) in groups.items():
                if self._doubled_by(p, len(subs)):
                    added += self._merge_new_locked(
                        p,
                        np.fromiter(subs, np.int64, len(subs)),
                        np.fromiter(objs, np.int64, len(objs)),
                        applied,
                    )
                else:
                    added += self._stage_locked(p, zip(subs, objs), applied)
        return added

    def _doubled_by(self, p: int, n: int) -> bool:
        """Whether ``n`` new pairs are at least as many as ``p`` holds,
        sealed plus staged; seal lock held. Each staged subject holds a
        pair or more, so the staged pairs are counted only when their
        subjects alone do not decide."""
        cols = self._cols.get(p)
        held = len(cols.objs) if cols is not None else 0
        staged = self._staged.get(p)
        if staged:
            held += len(staged)
            if n >= held:
                held += sum(map(len, staged.values())) - len(staged)
        return n >= held

    def _merge_new_locked(self, p: int, subs, objs, applied=None) -> int:
        """Merge the pairs ``(subs, objs)`` into ``p`` at once; seal lock
        held. Returns how many were new, and accounts for those alone:
        the size and epochs, the deferred node union and ``applied``."""
        cols, new_subs, new_objs = self._merge_locked(p, subs, objs)
        n = len(new_subs)
        if not n:
            return 0
        self._size += n
        self._epoch += n
        self._pred_epoch[p] += n
        # The merged key columns hold every new endpoint (and iterate
        # as Python ints); nodes() unions them in. A column a later
        # merge supersedes stays referenced until then: at most as many
        # ids again, as each merge at least doubles its predicate.
        self._pending_nodes.append(cols.subs)
        self._pending_nodes.append(cols.robjs)
        if applied is not None:
            applied.extend(
                (s, p, o, 1) for s, o in zip(new_subs.tolist(), new_objs.tolist())
            )
        return n

    def _stage_locked(self, p: int, pairs, applied=None) -> int:
        """Stage the pairs ``(s, o)`` of ``p`` one at a time, skipping
        those ``p`` holds; seal lock held. Returns how many were new."""
        staged = self._staged.get(p)
        cols = self._cols.get(p)
        new = []
        for s, o in pairs:
            if staged is not None and o in staged.get(s, ()):
                continue
            if cols is not None:
                run = cols.run_of(s)
                if run is not None and o in run:
                    continue
            if staged is None:
                staged = self._staged.setdefault(p, {})
            staged.setdefault(s, set()).add(o)
            new.append((s, o))
        n = len(new)
        self._size += n
        self._epoch += n
        self._pred_epoch[p] += n
        self._nodes.update(chain.from_iterable(new))
        if applied is not None:
            applied.extend((s, p, o, 1) for s, o in new)
        return n

    def remove(self, s: int, p: int, o: int) -> bool:
        with self._seal_lock:
            return self._remove_batch_locked(p, [(s, o)]) == 1

    def remove_many(self, triples, applied=None) -> int:
        # Group by predicate first: a removal touching a sealed run
        # rebuilds that predicate's columns, so the rebuild must be
        # paid once per predicate, not once per triple.
        by_p: dict[int, list[tuple[int, int]]] = {}
        for s, p, o in triples:
            by_p.setdefault(p, []).append((s, o))
        removed = 0
        with self._seal_lock:
            for p, pairs in by_p.items():
                removed += self._remove_batch_locked(p, pairs, applied)
        return removed

    def _remove_batch_locked(
        self, p: int, pairs: list[tuple[int, int]], applied=None
    ) -> int:
        """Delete ``pairs`` from predicate ``p``; seal lock held.

        Staged pairs are discarded in place; sealed pairs are masked
        out of the columns at once (:meth:`_Columns.without`; a pair is
        never in both — the add path checks both before staging). Both
        hit collections are keyed by pair so a pair duplicated within
        one batch counts (and is discarded) once.
        """
        staged = self._staged.get(p)
        cols = self._cols.get(p)
        hit_staged: set[tuple[int, int]] = set()
        #: (s, o) -> its (forward, reverse) position in the columns.
        hit_sealed: dict[tuple[int, int], tuple[int, int]] = {}
        for s, o in pairs:
            if staged is not None and o in staged.get(s, ()):
                hit_staged.add((s, o))
            elif cols is not None and (at := cols.position(s, o)) is not None:
                hit_sealed[s, o] = at
        for s, o in hit_staged:
            objs = staged[s]
            objs.discard(o)
            if not objs:
                del staged[s]
                if not staged:
                    del self._staged[p]
                    staged = None
        if hit_sealed:
            rest = cols.without(*zip(*hit_sealed.values()))
            if rest is not None:
                self._cols[p] = rest
            else:
                del self._cols[p]
        removed = len(hit_staged) + len(hit_sealed)
        if removed:
            self._size -= removed
            self._epoch += removed
            self._pred_epoch[p] += removed
            for hits in (hit_staged, hit_sealed):
                for s, o in hits:
                    # Either endpoint may still appear elsewhere;
                    # nodes() probes just these.
                    self._maybe_gone.add(s)
                    self._maybe_gone.add(o)
                    if applied is not None:
                        applied.append((s, p, o, -1))
        return removed

    def freeze(self) -> None:
        """Seal every predicate so reads are lock-free from here on."""
        for p in list(self._staged):
            self._sealed(p)

    def _sealed(self, p: int) -> _Columns | None:
        """The sealed columns of ``p``, merging any staged writes first.

        Thread-safe against concurrent readers: the merge happens under
        the seal lock and the finished `_Columns` is published in one
        reference assignment before the staging entry is dropped.
        """
        if p not in self._staged:
            return self._cols.get(p)
        with self._seal_lock:
            if p not in self._staged:
                return self._cols.get(p)
            return self._merge_locked(p)[0]

    def _merge_locked(
        self, p: int, subs=_EMPTY_INT64, objs=_EMPTY_INT64
    ) -> tuple[_Columns, np.ndarray, np.ndarray]:
        """Seal ``p`` from its sealed pairs, its staged pairs and the
        pairs ``(subs, objs)``; seal lock held. Returns the new columns
        and, in forward order, the pairs of ``(subs, objs)`` that ``p``
        did not hold (each once).

        The held pairs go first: one stable ``lexsort`` puts each held
        pair ahead of its copies, so the first of each run of equal
        pairs is the one kept, and it is new exactly when it came from
        ``(subs, objs)``. (Staged and sealed pairs never overlap, as
        staging skips what is sealed.) A second ``lexsort`` orders the
        reverse direction. When nothing is staged and nothing is new
        the columns stay as they are.
        """
        held_subs, held_objs = [], []
        cols = self._cols.get(p)
        if cols is not None:
            sealed_subs, sealed_objs = cols.pair_arrays()
            held_subs.append(sealed_subs)
            held_objs.append(sealed_objs)
        staged = self._staged.get(p)
        if staged:
            lengths = np.fromiter(map(len, staged.values()), np.int64, len(staged))
            held_subs.append(
                np.repeat(np.fromiter(staged, np.int64, len(staged)), lengths)
            )
            held_objs.append(
                np.fromiter(
                    chain.from_iterable(staged.values()), np.int64, int(lengths.sum())
                )
            )
        held = sum(map(len, held_objs))
        all_subs = np.concatenate(held_subs + [subs])
        all_objs = np.concatenate(held_objs + [objs])
        fwd = np.lexsort((all_objs, all_subs))
        all_subs, all_objs = all_subs[fwd], all_objs[fwd]
        new_subs = new_objs = _EMPTY_INT64
        if len(subs):  # the held pairs alone are distinct
            first = np.ones(len(fwd), np.bool_)
            first[1:] = (all_subs[1:] != all_subs[:-1]) | (all_objs[1:] != all_objs[:-1])
            new = first & (fwd >= held)
            if not staged and not new.any():
                return cols, new_subs, new_objs
            all_subs, all_objs, new_subs, new_objs = (
                all_subs[first], all_objs[first], all_subs[new], all_objs[new]
            )
        rev = np.lexsort((all_subs, all_objs))
        new_cols = _Columns(
            Segment(
                *group_columns(all_subs, all_objs),
                *group_columns(all_objs[rev], all_subs[rev]),
            )
        )
        self._cols[p] = new_cols
        self._staged.pop(p, None)
        return new_cols, new_subs, new_objs

    # -- snapshot interchange -------------------------------------------

    def export_segments(self):
        """Hand out the sealed columns directly — no re-sort, no copy.

        Sealing on the way out means a snapshot save after a bulk load
        serializes exactly the arrays the store would compute anyway.
        """
        for p in self.predicates():
            cols = self._sealed(p)
            if cols is not None and len(cols.objs):
                yield p, cols.to_segment()

    def import_segments(self, segments) -> int:
        """Adopt segments as sealed columns: no parse, no sort, no dedup.

        This is the snapshot warm-start fast path — a segment *is* this
        backend's physical layout, so installing it is one reference
        assignment. The node-set union over the distinct-endpoint
        columns is **deferred** to the first :meth:`nodes` call (the
        serving path never asks for it), keeping a warm start O(1) in
        node count. A predicate that already has sealed or staged
        triples is merged with the segment's pairs instead, as a large
        :meth:`add_many` group is (one deduplicating ``lexsort``).
        """
        added = 0
        with self._seal_lock:
            for p, seg in segments:
                if not seg.num_pairs:  # a sealed predicate is never empty
                    continue
                if p in self._cols or p in self._staged:
                    added += self._merge_new_locked(p, *_Columns(seg).pair_arrays())
                    continue
                n = seg.num_pairs
                self._cols[p] = _Columns(seg)
                self._size += n
                self._epoch += n
                self._pred_epoch[p] += n
                added += n
                self._pending_nodes.append(seg.subs)
                self._pending_nodes.append(seg.robjs)
        return added

    # -- cardinalities --------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def num_triples(self) -> int:
        return self._size

    def nodes(self) -> set[int]:
        """All endpoint ids; drains any import-deferred column unions
        and settles the endpoints removals may have orphaned.

        The drain runs under the seal lock and the emptied pending list
        is published only *after* ``_nodes`` is fully updated, so a
        concurrent reader either joins the drain or sees the finished
        set — never a half-built one.
        """
        while self._pending_nodes or self._maybe_gone:
            with self._seal_lock:
                nodes = self._nodes
                # Pending columns first: one adopted before a removal
                # still lists the removed pair's endpoints.
                for column in self._pending_nodes:
                    nodes.update(column)
                self._pending_nodes = []
                # Only endpoints of removed pairs can have dropped out;
                # probe the per-predicate key columns for just those
                # instead of rescanning the store.
                if self._maybe_gone:
                    degrees = self._label_degrees_locked(self._maybe_gone)
                    for n, (outs, ins) in degrees.items():
                        if not outs and not ins:
                            nodes.discard(n)
                    self._maybe_gone = set()
        return self._nodes

    def predicate_epoch(self, p) -> int:
        return self._pred_epoch.get(p, 0)

    def predicates(self) -> list[int]:
        # Under the seal lock: a concurrent reader-triggered seal
        # inserts into _cols / deletes from _staged, which would break
        # lock-free key iteration mid-union.
        with self._seal_lock:
            return sorted(self._cols.keys() | self._staged.keys())

    def contains(self, s: int, p: int, o: int) -> bool:
        staged = self._staged.get(p)
        if staged is not None and o in staged.get(s, ()):
            return True
        cols = self._cols.get(p)
        if cols is None:
            return False
        run = cols.run_of(s)
        return run is not None and o in run

    # -- predicate-first navigation -------------------------------------

    def successors(self, p: int, s: int) -> SortedRun:
        cols = self._sealed(p)
        if cols is None:
            return _EMPTY_RUN
        run = cols.run_of(s)
        return run if run is not None else _EMPTY_RUN

    def predecessors(self, p: int, o: int) -> SortedRun:
        cols = self._sealed(p)
        if cols is None:
            return _EMPTY_RUN
        run = cols.reverse_run_of(o)
        return run if run is not None else _EMPTY_RUN

    def edges(self, p: int) -> Iterator[tuple[int, int]]:
        cols = self._sealed(p)
        if cols is not None:
            yield from cols.pairs()

    def count(self, p: int) -> int:
        cols = self._sealed(p)
        return len(cols.objs) if cols is not None else 0

    # -- bulk kernel views ----------------------------------------------

    def adjacency(self, p: int):
        cols = self._sealed(p)
        return cols.forward() if cols is not None else _EMPTY_DICT

    def reverse_adjacency(self, p: int):
        cols = self._sealed(p)
        return cols.backward() if cols is not None else _EMPTY_DICT

    def subject_set(self, p: int) -> SortedRun:
        cols = self._sealed(p)
        return SortedRun(cols.subs, 0, len(cols.subs)) if cols else _EMPTY_RUN

    def object_set(self, p: int) -> SortedRun:
        cols = self._sealed(p)
        return SortedRun(cols.robjs, 0, len(cols.robjs)) if cols else _EMPTY_RUN

    def gather(
        self, p, nodes, far_filters=(), *, reverse=False, self_join=False,
        deadline=None,
    ) -> tuple[dict[int, set[int]], int]:
        """Whole-column vector primitives over the sealed columns: one
        ``searchsorted`` of the sorted candidates into the key column,
        offsets -> counts -> walks, one position gather of the value
        column, one membership mask per filter, one ``tolist`` and one
        ``set`` per surviving bucket. Two input shapes keep the scalar
        :class:`SortedRun` algebra, both read off sizes this call sees:
        at most :data:`SCALAR_NODES` candidates (a point lookup is
        cheaper than numpy's fixed cost per call), and buckets that
        dwarf a filter (popular nodes against a few candidates: probing
        the filter's elements into each run beats copying the runs)."""
        cols = self._sealed(p)
        if cols is None:
            return {}, 0
        if nodes is not None and len(nodes) <= SCALAR_NODES:
            live = cols.backward() if reverse else cols.forward()
            runs = [(n, run) for n in nodes if (run := live.get(n)) is not None]
            walks = sum(len(run) for _, run in runs)
            if deadline is not None:
                deadline.check_every(walks)
            return _scalar_buckets(runs, far_filters, self_join), walks

        keys, offs, vals = cols.arrays(reverse)
        if nodes is None:
            matched, starts, ends = keys, offs[:-1], offs[1:]
            walks = len(vals)
        else:
            if len(nodes) > len(keys):  # probe the smaller side
                hit = np.fromiter(
                    map(nodes.__contains__, keys.tolist()), np.bool_, len(keys)
                )
                pos = hit.nonzero()[0]
            else:
                wanted = _sorted_array(nodes)
                pos = np.searchsorted(keys, wanted)
                np.minimum(pos, len(keys) - 1, out=pos)
                pos = pos[keys[pos] == wanted]
            matched, starts, ends = keys[pos], offs[pos], offs[pos + 1]
            walks = int((ends - starts).sum())
        if deadline is not None:
            deadline.check_every(walks)
        if not walks:
            return {}, 0
        # (An empty filter always lands here: nothing below sees one.)
        if far_filters and walks > GALLOP_RATIO * len(matched) * min(
            map(len, far_filters)
        ):
            raw_vals = cols.rsubs if reverse else cols.objs
            runs = zip(
                matched.tolist(),
                map(SortedRun, repeat(raw_vals), starts.tolist(), ends.tolist()),
            )
            return _scalar_buckets(runs, far_filters, self_join), walks

        # The matched runs, concatenated: ``far[lo[i]:hi[i]]`` is run i.
        counts = ends - starts
        hi = np.cumsum(counts)
        if nodes is None:
            far = vals
        else:
            lo = hi - counts
            far = vals[np.arange(walks) + np.repeat(starts - lo, counts)]
        keep = None
        if self_join:
            keep = far == np.repeat(matched, counts)
        for view in far_filters:
            mask = _membership(far, view)
            keep = mask if keep is None else keep & mask
        if keep is not None:
            far = far[keep]
            kept = np.cumsum(keep)
            hi = kept[hi - 1]
        bounds = hi.tolist()
        values = far.tolist()
        return {
            # (A one-element bucket is the common one; no slice for it.)
            k: {values[a]} if b - a == 1 else set(values[a:b])
            for k, a, b in zip(matched.tolist(), [0] + bounds, bounds)
            if a < b
        }, walks

    def label_degrees(self, nodes):
        with self._seal_lock:
            return self._label_degrees_locked(nodes)

    def _label_degrees_locked(self, nodes):
        """:meth:`label_degrees` without sealing anything; seal lock held.

        Sealed degrees are one ``searchsorted`` of the sorted nodes into
        each predicate's key column per direction, read off the offsets;
        staged writes have no reverse index, so their in-degrees come
        from one pass over the staging area per call (it holds only the
        writes since each predicate was last read) — never from a seal,
        which would cost O(predicate).
        """
        wanted = np.fromiter(nodes, np.int64)
        wanted.sort()
        order = wanted.tolist()
        out = {n: ({}, {}) for n in order}
        if not order:
            return out
        least, most = order[0], order[-1]
        for p, cols in self._cols.items():
            for side, column in enumerate((cols.subs, cols.robjs)):
                # A key column wholly outside the nodes' range is skipped
                # unsearched: new nodes get new, higher ids, so a write's
                # fresh endpoints miss every older predicate this way.
                if column[-1] < least or column[0] > most:
                    continue
                keys, offs, _ = cols.arrays(reverse=bool(side))
                pos = keys.searchsorted(wanted)
                hit = (keys.take(pos, mode="clip") == wanted).nonzero()[0]
                if not len(hit):
                    continue
                pos = pos[hit]
                for k, d in zip(hit.tolist(), (offs[pos + 1] - offs[pos]).tolist()):
                    out[order[k]][side][p] = d
        staged_in = {
            p: Counter(o for objs in staged.values() for o in objs)
            for p, staged in self._staged.items()
        }
        for n, (outs, ins) in out.items():
            for p, staged in self._staged.items():
                if objs := staged.get(n):
                    outs[p] = outs.get(p, 0) + len(objs)
                if d := staged_in[p].get(n):
                    ins[p] = ins.get(p, 0) + d
        return out

    # -- node-first navigation ------------------------------------------

    def triples(self) -> Iterator[Triple]:
        for p in self.predicates():
            cols = self._sealed(p)
            if cols is None:
                continue
            for s, o in cols.pairs():
                yield Triple(s, p, o)

    def out_edges(self, s: int) -> dict[int, set[int]]:
        spo = self._perms.get("spo", self._epoch, self._seal_lock, self.triples)
        return spo.get(s, _EMPTY_DICT)

    def in_edges(self, o: int) -> dict[int, set[int]]:
        ops = self._perms.get("ops", self._epoch, self._seal_lock, self.triples)
        return ops.get(o, _EMPTY_DICT)

    # -- catalog & reporting --------------------------------------------

    def degree_columns(self, p, reverse=False):
        """The sealed key column itself and the differences of its
        offsets (ascending keys): no per-key object is built."""
        cols = self._sealed(p)
        if cols is None:
            return _EMPTY_INT64, _EMPTY_INT64
        keys, offs, _ = cols.arrays(reverse)
        return keys, np.diff(offs)

    def index_bytes(self) -> int:
        total = sys.getsizeof(self._cols)
        for cols in self._cols.values():
            total += cols.index_bytes()
        total += sys.getsizeof(self._staged)
        for staged in self._staged.values():
            total += sys.getsizeof(staged)
            total += sum(sys.getsizeof(objs) for objs in staged.values())
        return total + self._perms.index_bytes()

    def __repr__(self) -> str:
        return (
            f"ColumnarBackend({self._size} triples, "
            f"{len(self.predicates())} predicates)"
        )
