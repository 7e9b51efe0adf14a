"""ARC eviction, counters, and predicate-version validity of the service caches."""

import random
import threading
from collections import OrderedDict

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.engine_api import EngineResult
from repro.service.caches import BoundedCache, PlanCache, ResultCache


def result(count: int) -> EngineResult:
    return EngineResult(engine="WF", count=count)


class TestLRUCache:
    """:class:`BoundedCache`, the substrate of every service cache
    (the class is named for the policy it evicted by before ARC)."""

    def test_get_put_roundtrip(self):
        cache = BoundedCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", default=-1) == -1

    def test_eviction_spares_the_entry_read_again(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # a is seen again, b only once
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_counters(self):
        cache = BoundedCache(1)
        cache.get("x")
        cache.put("x", 1)
        cache.get("x")
        cache.put("y", 2)  # evicts x
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 1)
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5

    def test_unrecorded_lookup_leaves_counters(self):
        cache = BoundedCache(4)
        cache.put("a", 1)
        assert cache.get("a", record=False) == 1
        assert cache.get("b", record=False) is None
        stats = cache.stats()
        assert stats.lookups == 0

    def test_zero_size_disables(self):
        cache = BoundedCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_hit_rate_empty_cache(self):
        assert BoundedCache(4).stats().hit_rate == 0.0

    def test_put_same_key_updates(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert len(cache) == 1

    def test_concurrent_put_get(self):
        cache = BoundedCache(64)
        errors = []

        def worker(base):
            try:
                for i in range(200):
                    cache.put((base, i % 32), i)
                    cache.get((base, (i + 1) % 32))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 64

class ReferenceLRU:
    """Least-recently-used eviction, the policy ARC replaced."""

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.data = OrderedDict()

    def get(self, key):
        if key not in self.data:
            return None
        self.data.move_to_end(key)
        return self.data[key]

    def put(self, key, value):
        self.data[key] = value
        if len(self.data) > self.maxsize:
            self.data.popitem(last=False)


def hit_rate(cache, trace, skip=0):
    """Replay ``trace`` as the service does (a miss puts the key), and
    return the share of hits after the first ``skip`` draws."""
    hits = 0
    for i, key in enumerate(trace):
        if cache.get(key) is None:
            cache.put(key, True)
        elif i >= skip:
            hits += 1
    return hits / (len(trace) - skip)


ZIPF = [1.0 / rank for rank in range(1, 1025)]


def zipf_draws(rng, count):
    """``count`` Zipf(1.0) draws over 1,024 keys, ranked by ``rng``."""
    ranked = list(range(1024))
    rng.shuffle(ranked)
    return rng.choices(ranked, ZIPF, k=count)


def http_mixed_draws(seed=0):
    """The e2e ``http_mixed`` cycle: 2,048 draws from a fixed ranking,
    ordered by the seed."""
    draws = zipf_draws(random.Random(0), 2048)
    random.Random(seed).shuffle(draws)
    return draws


class TestEviction:
    def test_a_key_read_twice_survives_a_scan(self):
        """A pass over ``maxsize`` fresh keys flushes an LRU, not ARC."""
        for cache, survives in ((BoundedCache(8), True), (ReferenceLRU(8), False)):
            cache.put("hot", 1)
            assert cache.get("hot") == 1
            for i in range(8):
                cache.put(("scan", i), i)
            assert (cache.get("hot") == 1) is survives

    def test_http_mixed_stream_hits_above_lru(self):
        """Three replays after a warming one: LRU hits 0.734."""
        cycle = http_mixed_draws()
        arc = hit_rate(BoundedCache(256), cycle * 4, skip=len(cycle))
        lru = hit_rate(ReferenceLRU(256), cycle * 4, skip=len(cycle))
        assert arc >= 0.84
        assert lru < 0.75

    def test_reshuffled_popularity_costs_nothing_against_lru(self):
        """An admission filter that learns frequency falls well behind
        LRU when the ranking changes; ARC must not."""
        for period in (500, 2048):
            rng = random.Random(period)
            trace = [key for _ in range(16) for key in zipf_draws(rng, period)]
            arc = hit_rate(BoundedCache(256), trace)
            lru = hit_rate(ReferenceLRU(256), trace)
            assert arc >= lru - 0.005, (period, arc, lru)

    def test_one_off_scans_cost_less_than_under_lru(self):
        rng = random.Random(3)
        ranked = list(range(1024))
        rng.shuffle(ranked)
        trace = []
        for block in range(16):
            trace += rng.choices(ranked, ZIPF, k=1000)
            trace += [("scan", block, i) for i in range(300)]
        arc = hit_rate(BoundedCache(256), trace)
        lru = hit_rate(ReferenceLRU(256), trace)
        assert arc >= lru

    def test_ghosts_hold_hashes_not_keys(self):
        cache = BoundedCache(2)
        big = b"x" * 8192
        for i in range(8):
            cache.put((big, i), i)
            cache.get((big, i - i % 2))  # every other key is read again
        ghosts = [*cache._b1, *cache._b2]
        assert cache._b1 and cache._b2
        assert all(type(ghost) is int for ghost in ghosts)


KEY = st.integers(min_value=0, max_value=9)


class CacheAgainstDict(RuleBasedStateMachine):
    """Any interleaving of get, put, discard and stale drops: a lookup
    returns the last value put or nothing, and the four lists stay
    within their bounds."""

    @initialize(maxsize=st.integers(min_value=1, max_value=4))
    def make(self, maxsize):
        self.cache = BoundedCache(maxsize)
        #: key -> the last value put, while the key may be resident
        self.model = {}
        self.values = 0
        self.hits = self.misses = self.stale = 0

    @rule(key=KEY)
    def put(self, key):
        self.values += 1
        lists = (self.cache._t1, self.cache._t2)
        was = [key in part for part in lists]
        self.cache.put(key, self.values)
        self.model[key] = self.values
        if any(was):  # a resident key is updated in place
            assert [key in part for part in lists] == was

    @rule(key=KEY)
    def get(self, key):
        value = self.cache.get(key)
        if value is None:
            self.misses += 1
            self.model.pop(key, None)
        else:
            self.hits += 1
            assert value == self.model[key]

    @rule(key=KEY)
    def discard(self, key):
        self.cache.discard(key)
        self.model.pop(key, None)
        assert key not in self.cache

    @rule(key=KEY)
    def drop_stale(self, key):
        entry = self.cache.get(key)
        if entry is None:
            self.misses += 1
            self.model.pop(key, None)
            return
        self.cache._drop_stale(key, entry, record=True)
        self.misses += 1
        self.stale += 1
        del self.model[key]
        assert key not in self.cache

    @invariant()
    def resident_entries_are_the_last_put(self):
        cache = getattr(self, "cache", None)
        if cache is None:
            return
        t1, t2 = cache._t1, cache._t2
        assert not t1.keys() & t2.keys()
        for part in (t1, t2):
            for key, value in part.items():
                assert self.model[key] == value

    @invariant()
    def lists_stay_bounded(self):
        cache = getattr(self, "cache", None)
        if cache is None:
            return
        c = cache.maxsize
        t1, t2, b1, b2 = cache._t1, cache._t2, cache._b1, cache._b2
        assert len(cache) == len(t1) + len(t2) <= c
        assert len(t1) + len(b1) <= c
        assert len(t1) + len(t2) + len(b1) + len(b2) <= 2 * c
        assert 0 <= cache._p <= c
        assert all(type(ghost) is int for ghost in (*b1, *b2))

    @invariant()
    def counters_match(self):
        cache = getattr(self, "cache", None)
        if cache is None:
            return
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stale_drops) == (
            self.hits, self.misses, self.stale)


TestCacheAgainstDict = CacheAgainstDict.TestCase
TestCacheAgainstDict.settings = settings(
    max_examples=60, stateful_step_count=60, deadline=None
)


def never():
    raise AssertionError("versions must not be read on the epoch fast path")


class TestPlanCache:
    def test_roundtrip(self):
        cache = PlanCache(4)
        assert cache.get_plan("sig", (1, 2)) is None
        cache.put_plan("sig", (1, 2), "AGPLAN", "CHORDS")
        assert cache.get_plan("sig", (1, 2)) == ("AGPLAN", "CHORDS")

    def test_changed_predicate_drops_the_plan(self):
        cache = PlanCache(4)
        cache.put_plan("sig", (1, 2), "AGPLAN", "CHORDS")
        assert cache.get_plan("sig", (1, 3)) is None
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stale_drops) == (0, 1, 1)
        assert len(cache) == 0


class TestResultCache:
    def test_same_epoch_serves_without_reading_versions(self):
        cache = ResultCache(4)
        cache.put_result("sig", 7, (1,), result(3))
        assert cache.get_result("sig", 7, never).count == 3

    def test_write_elsewhere_is_still_a_hit(self):
        """The epoch moved but the query's predicates did not: a hit,
        re-stamped so the next lookup takes the fast path again."""
        cache = ResultCache(4)
        cache.put_result("sig", 7, (1, 4), result(3))
        assert cache.get_result("sig", 9, lambda: (1, 4)).count == 3
        assert cache.get_result("sig", 9, never).count == 3
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stale_drops) == (2, 0, 0)

    def test_changed_predicate_is_a_miss_and_evicts(self):
        cache = ResultCache(4)
        cache.put_result("sig", 7, (1, 4), result(3))
        assert cache.get_result("sig", 8, lambda: (1, 5)) is None
        # The stale entry was retired, and the lookup counted as a miss.
        stats = cache.stats()
        assert stats.hits == 0
        assert stats.misses == 1
        assert stats.stale_drops == 1
        assert len(cache) == 0

    def test_unrecorded_lookup_leaves_hit_counters_alone(self):
        cache = ResultCache(4)
        cache.put_result("sig", 7, (1,), result(3))
        assert cache.get_result("sig", 8, lambda: (2,), record=False) is None
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stale_drops) == (0, 0, 1)

    def test_fresh_entry_after_invalidation(self):
        cache = ResultCache(4)
        cache.put_result("sig", 1, (1,), result(3))
        assert cache.get_result("sig", 2, lambda: (2,)) is None
        cache.put_result("sig", 2, (2,), result(5))
        assert cache.get_result("sig", 2, never).count == 5
