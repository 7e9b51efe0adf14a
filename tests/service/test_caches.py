"""LRU semantics, counters, and predicate-version validity of the service caches."""

import threading

from repro.engine_api import EngineResult
from repro.service.caches import LRUCache, PlanCache, ResultCache


def result(count: int) -> EngineResult:
    return EngineResult(engine="WF", count=count)


class TestLRUCache:
    def test_get_put_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", default=-1) == -1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # promote a; b is now oldest
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_counters(self):
        cache = LRUCache(1)
        cache.get("x")
        cache.put("x", 1)
        cache.get("x")
        cache.put("y", 2)  # evicts x
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 1)
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5

    def test_unrecorded_lookup_leaves_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a", record=False) == 1
        assert cache.get("b", record=False) is None
        stats = cache.stats()
        assert stats.lookups == 0

    def test_zero_size_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_hit_rate_empty_cache(self):
        assert LRUCache(4).stats().hit_rate == 0.0

    def test_put_same_key_updates(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert len(cache) == 1

    def test_concurrent_put_get(self):
        cache = LRUCache(64)
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
