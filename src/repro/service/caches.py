"""Thread-safe bounded caches for the query service.

:class:`BoundedCache` is the shared substrate: a mapping that evicts by
ARC (adaptive replacement), guarded by a lock, with hit/miss/eviction
counters. On top of it sit the two service caches:

- :class:`PlanCache` maps a query signature to the reusable planning
  artifacts ``(AGPlan, Chordification)``.
- :class:`ResultCache` maps ``(signature, materialize)`` to a finished
  :class:`~repro.engine_api.EngineResult` — all of its rows, or the
  first ones, which serve a request asking for no more than that.

Both share one validity rule. A conjunctive query's answer is a function
of the edge sets of its own predicates only, so an entry is stamped with
the *versions* of those predicates — the store's per-predicate mutation
counters, read by the service — and is dropped, as a miss, exactly when
a lookup presents different ones. A write to any other predicate leaves
it a hit. (A cached plan would stay *correct* across any write; it is
dropped with its predicates so their new statistics get planned with.)
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, NamedTuple

from repro.engine_api import EngineResult
from repro.planner.plan import AGPlan, Chordification


class CacheStats(NamedTuple):
    """Counters snapshot for one cache."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int
    stale_drops: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when untouched)."""
        total = self.lookups
        return self.hits / total if total else 0.0


class BoundedCache:
    """A bounded mapping that evicts by ARC, safe for concurrent use.

    ARC (adaptive replacement; Megiddo & Modha, FAST 2003) keeps its
    resident entries in two recency-ordered lists: ``T1``, keys asked
    for once since they entered, and ``T2``, keys asked for again. It
    remembers the keys it last evicted from each in the ghost lists
    ``B1`` and ``B2``, and splits the room between ``T1`` and ``T2`` by
    a target ``p`` for ``T1``: a put of a ``B1`` ghost grows ``p`` (a
    larger ``T1`` would have kept it), a put of a ``B2`` ghost shrinks
    it. An eviction takes ``T1``'s oldest entry while ``T1`` is above
    ``p``, else ``T2``'s. A one-off key therefore displaces other
    one-off keys, not an entry that was asked for twice, and a scan of
    fresh keys cannot flush the working set as it does under LRU.

    A ghost is ``hash(key)``, never the key: a request body used as a
    key is not retained past its entry. (Two keys that share a hash
    can only misplace one admission.) All four lists together hold at
    most ``2 * maxsize`` keys, ``T1`` and ``B1`` at most ``maxsize``.

    A hit on ``T2`` costs one probe and a ``move_to_end``; a hit on
    ``T1`` moves the entry to ``T2``. ``put`` of a resident key updates
    it in place. :meth:`discard` and a stale drop remove an entry
    without a ghost: the key was not evicted for want of room.
    ``maxsize <= 0`` disables the cache entirely (every lookup misses,
    every put is dropped), which lets the service switch caching off
    without special-casing.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._t1: OrderedDict[Hashable, Any] = OrderedDict()
        self._t2: OrderedDict[Hashable, Any] = OrderedDict()
        self._b1: OrderedDict[int, None] = OrderedDict()
        self._b2: OrderedDict[int, None] = OrderedDict()
        self._p = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._stale_drops = 0

    _MISSING = object()

    def get(self, key: Hashable, default: Any = None, record: bool = True) -> Any:
        """Look up ``key``; ``record=False`` leaves the counters alone
        (used for double-checks that already counted once)."""
        with self._lock:
            t2 = self._t2
            value = t2.get(key, self._MISSING)
            if value is not self._MISSING:
                t2.move_to_end(key)
            else:
                value = self._t1.pop(key, self._MISSING)
                if value is self._MISSING:
                    if record:
                        self._misses += 1
                    return default
                t2[key] = value
            if record:
                self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.maxsize <= 0:
            return
        with self._lock:
            if key in self._t2:
                self._t2[key] = value
            elif key in self._t1:
                self._t1[key] = value
            else:
                self._admit(key, value)

    def _admit(self, key: Hashable, value: Any) -> None:
        """Make ``key`` resident: in ``T2`` if it is a ghost (moving
        ``p`` towards the list that would have kept it), else in ``T1``.
        Called under the lock."""
        t1, b1, b2 = self._t1, self._b1, self._b2
        ghost = hash(key)
        if ghost in b1:
            self._p = min(self.maxsize, self._p + max(1, len(b2) // len(b1)))
            del b1[ghost]
            self._make_room(False)
            self._t2[key] = value
        elif ghost in b2:
            self._p = max(0, self._p - max(1, len(b1) // len(b2)))
            del b2[ghost]
            self._make_room(True)
            self._t2[key] = value
        else:
            if len(t1) + len(b1) < self.maxsize:
                if len(t1) + len(self._t2) + len(b1) + len(b2) >= 2 * self.maxsize:
                    b2.popitem(last=False)
                self._make_room(False)
            elif b1:
                b1.popitem(last=False)
                self._make_room(False)
            else:  # T1 fills the cache: its oldest leaves without a ghost
                t1.popitem(last=False)
                self._evictions += 1
            t1[key] = value

    def _make_room(self, b2_ghost: bool) -> None:
        """Evict one resident entry to its ghost list if the cache is
        full: ``T1``'s oldest while ``T1`` is above ``p`` (or at it, for
        a key returning from ``B2``), else ``T2``'s."""
        t1, t2 = self._t1, self._t2
        if len(t1) + len(t2) < self.maxsize:
            return
        if t1 and (not t2 or len(t1) > self._p or (b2_ghost and len(t1) == self._p)):
            self._b1[hash(t1.popitem(last=False)[0])] = None
        else:
            self._b2[hash(t2.popitem(last=False)[0])] = None
        self._evictions += 1

    def discard(self, key: Hashable) -> None:
        """Remove ``key`` if present (no-op otherwise)."""
        with self._lock:
            if self._t2.pop(key, self._MISSING) is self._MISSING:
                self._t1.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            for part in (self._t1, self._t2, self._b1, self._b2):
                part.clear()
            self._p = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._t1) + len(self._t2)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._t2 or key in self._t1

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._t1) + len(self._t2),
                maxsize=self.maxsize,
                stale_drops=self._stale_drops,
            )

    def _drop_stale(self, key: Hashable, entry: Any, record: bool) -> None:
        """Retire ``entry`` (found under ``key`` by a :meth:`get` that,
        when ``record``, counted a hit): a stale entry is a miss."""
        with self._lock:
            if record:
                self._hits -= 1
                self._misses += 1
            # A lookup has just moved ``key`` into ``T2``.
            if self._t2.get(key) is entry:
                del self._t2[key]
                self._stale_drops += 1


#: Versions of a query's predicates, one per edge, in edge order.
Versions = tuple


class PlanCache(BoundedCache):
    """Bounded cache of ``(AGPlan, Chordification)`` keyed by query signature."""

    def get_plan(
        self, signature: Hashable, versions: Versions
    ) -> tuple[AGPlan, Chordification] | None:
        """The cached ``(AGPlan, Chordification)`` pair planned at
        ``versions``, or ``None``; an entry planned at other versions
        is dropped."""
        entry = self.get(signature)
        if entry is None:
            return None
        if entry[0] != versions:
            self._drop_stale(signature, entry, record=True)
            return None
        return entry[1]

    def put_plan(
        self,
        signature: Hashable,
        versions: Versions,
        ag_plan: AGPlan,
        chordification: Chordification,
    ) -> None:
        """Cache the planning artifacts for ``signature``."""
        self.put(signature, (versions, (ag_plan, chordification)))


class _ResultEntry:
    """One cached result: the predicate versions it is valid for, and
    the last store epoch at which they were seen to still hold.

    ``result`` is the one object every hit returns, so what it memoizes
    (:meth:`EngineResult.to_json`'s rendering) lives exactly as long as
    the entry: dropped as stale, evicted or discarded with it, and
    governed by no rule of its own.
    """

    __slots__ = ("epoch", "versions", "result")

    def __init__(self, epoch: int, versions: Versions, result: EngineResult):
        self.epoch = epoch
        self.versions = versions
        self.result = result


class ResultCache(BoundedCache):
    """Bounded result cache, valid per predicate version.

    An entry is served while the versions of its query's predicates are
    the ones it was computed at. The store epoch it also carries is not
    a second rule, only the shortcut that proves the first: no mutation
    anywhere since the epoch the versions were last checked at means no
    mutation of these predicates either, so a read-only store pays one
    integer compare per hit and never reads a version.
    """

    def get_result(
        self,
        signature: Hashable,
        epoch: int,
        versions: Callable[[], Versions],
        record: bool = True,
        limit: int | None = None,
    ) -> EngineResult | None:
        """The cached result for ``signature`` if its predicates are
        unchanged and it holds the ``limit`` rows asked for (``None`` =
        all); a stale entry is dropped and reports ``None``.

        ``epoch`` must have been read from the store *before*
        ``versions()`` is called (which happens only when it differs
        from the entry's): the entry is then re-stamped with an epoch no
        newer than the versions it vouches for.

        A result holding fewer rows than its ``count`` serves only a
        ``limit`` no larger than what it holds. Any other lookup is a
        miss that leaves the entry in place, for the caller's
        re-evaluation to replace.
        """
        entry: _ResultEntry | None = self.get(signature, record=record)
        if entry is None:
            return None
        if entry.epoch != epoch:
            if entry.versions != versions():
                self._drop_stale(signature, entry, record)
                return None
            entry.epoch = epoch
        rows = entry.result.rows
        if (
            rows is not None
            and len(rows) < entry.result.count
            and (limit is None or limit > len(rows))
        ):
            if record:
                with self._lock:
                    self._hits -= 1
                    self._misses += 1
            return None
        return entry.result

    def put_result(
        self,
        signature: Hashable,
        epoch: int,
        versions: Versions,
        result: EngineResult,
    ) -> None:
        """Cache ``result`` — the object hits will return, shared and
        read-only from here on — as computed at ``versions``, which held
        at store epoch ``epoch``."""
        self.put(signature, _ResultEntry(epoch, versions, result))
