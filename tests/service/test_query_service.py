"""QueryService: concurrency, caching, invalidation, and determinism."""

import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.engine import WireframeEngine
from repro.datasets.paper_queries import paper_diamond_queries, paper_snowflake_queries
from repro.errors import EvaluationTimeout, StoreError
from repro.query.miner import QueryMiner
from repro.query.model import ConjunctiveQuery, Const
from repro.query.parser import parse_sparql
from repro.query.templates import chain_template
from repro.service import QueryService
from repro.storage import MmapDictionary, save_snapshot
from repro.utils.deadline import Deadline


#: Hundreds of rows on ``mini_yago``: every limit below cuts it.
MANY_ROWS = "select ?x, ?m where { ?x actedIn ?m }"


def expired_deadline() -> Deadline:
    """A deadline that is already exhausted when a worker first polls it."""
    deadline = Deadline(1e-9)
    time.sleep(0.001)
    return deadline


@pytest.fixture
def mined_queries(mini_yago):
    miner = QueryMiner(mini_yago, seed=3, forbidden_labels=["rdf:type"])
    return miner.mine(chain_template(3), count=4)


@pytest.fixture
def service(mini_yago, mini_yago_catalog):
    with QueryService(
        mini_yago, catalog=mini_yago_catalog, max_workers=4
    ) as svc:
        yield svc


class TestBasics:
    def test_submit_returns_future_with_engine_result(self, service, mined_queries):
        future = service.submit(mined_queries[0])
        result = future.result(timeout=30)
        assert result.engine == "WF"
        assert result.count == len(result.rows)
        assert result.stats["service"]["result_cache"] == "miss"

    def test_matches_serial_engine(self, service, mini_yago, mini_yago_catalog,
                                   mined_queries):
        serial = WireframeEngine(mini_yago, mini_yago_catalog)
        for query in mined_queries:
            expected = serial.evaluate(query)
            got = service.evaluate(query)
            assert got.count == expected.count
            assert sorted(got.rows) == sorted(expected.rows)

    def test_materialize_false_counts_only(self, service, mined_queries):
        result = service.evaluate(mined_queries[0], materialize=False)
        assert result.rows is None
        assert result.count >= 0

    def test_closed_service_rejects_submissions(self, mini_yago):
        svc = QueryService(mini_yago, max_workers=1)
        svc.close()
        with pytest.raises(RuntimeError):
            svc.submit(parse_sparql("select ?x where { ?x actedIn ?m }"))

    def test_refused_submission_leaves_no_queue_depth(self, mini_yago):
        # A close() racing submit() past its closed-check: the pool
        # refuses the job, so nothing is left queued.
        with QueryService(mini_yago, max_workers=1) as svc:
            svc._pool.shutdown(wait=True)
            with pytest.raises(RuntimeError):
                svc.submit(parse_sparql("select ?x where { ?x actedIn ?m }"))
            snap = svc.snapshot()
            assert (snap["queue_depth"], snap["queued"]) == (0, 0)
            assert svc.metrics.get("repro_service_queue_depth").value() == 0

    def test_snapshot_shape(self, service, mined_queries):
        service.evaluate(mined_queries[0])
        snap = service.snapshot()
        for key in ("completed", "plan_cache", "result_cache",
                    "latency_seconds", "epoch", "max_workers"):
            assert key in snap
        assert snap["completed"] >= 1
        assert snap["latency_seconds"]["total"]["count"] >= 1


class TestPlanCache:
    def test_alpha_equivalent_queries_share_plans(self, mini_yago):
        a = parse_sparql("select ?x, ?m where { ?x actedIn ?m }")
        b = parse_sparql("select ?p, ?f where { ?p actedIn ?f }")
        with QueryService(mini_yago, max_workers=2,
                          result_cache_size=0) as svc:
            first = svc.evaluate(a)
            second = svc.evaluate(b)
            assert first.count == second.count
            assert second.stats["service"]["plan_cache"] == "hit"
            assert svc.plan_cache.stats().hits == 1

    def test_constant_variants_share_plans(self, mini_yago):
        probe = parse_sparql("select ?x, ?m where { ?x actedIn ?m }")
        rows = WireframeEngine(mini_yago).evaluate(probe).rows
        decode = mini_yago.dictionary.decode
        movies = sorted({decode(r[1]) for r in rows})[:4]
        queries = [
            ConjunctiveQuery([("?x", "actedIn", Const(m))], name=m)
            for m in movies
        ]
        with QueryService(mini_yago, max_workers=2) as svc:
            results = svc.evaluate_many(queries)
            assert all(r.count > 0 for r in results)
            stats = svc.plan_cache.stats()
            assert stats.hits == len(queries) - 1

    def test_plan_reuse_preserves_results(self, service, mined_queries):
        # Same query through cold and warm plan paths must agree.
        cold = service.evaluate(mined_queries[1])
        service.plan_cache.clear()
        service.result_cache.clear()
        warm_plan_source = service.evaluate(mined_queries[1])
        assert cold.count == warm_plan_source.count


class TestResultCache:
    def test_repeat_hits_cache(self, service, mined_queries):
        query = mined_queries[0]
        first = service.evaluate(query)
        second = service.evaluate(query)
        assert second.stats["service"]["result_cache"] in ("hit", "coalesced")
        assert second.count == first.count

    def test_invalidation_after_store_mutation(self, mini_yago_catalog):
        from repro.graph.builder import GraphBuilder

        store = (
            GraphBuilder()
            .edge("a", "knows", "b")
            .edge("b", "knows", "c")
            .build(freeze=False)
        )
        query = parse_sparql("select ?x, ?y where { ?x knows ?y }")
        with QueryService(store, max_workers=2) as svc:
            assert svc.evaluate(query).count == 2
            engine_before = svc.engine
            store.add_term_triple("c", "knows", "d")
            result = svc.evaluate(query)
            assert result.count == 3  # not the stale cached 2
            assert result.stats["service"]["result_cache"] == "miss"
            assert svc.engine is not engine_before  # catalog was rebuilt
            assert svc.epoch == store.epoch

    def test_mutation_drops_only_plans_over_the_written_predicate(self):
        from repro.graph.builder import GraphBuilder

        store = (
            GraphBuilder()
            .edge("a", "knows", "b")
            .edge("a", "likes", "b")
            .build(freeze=False)
        )
        knows = parse_sparql("select ?x where { ?x knows ?y }")
        likes = parse_sparql("select ?x where { ?x likes ?y }")
        with QueryService(store, max_workers=1, result_cache_size=0) as svc:
            svc.evaluate(knows)
            svc.evaluate(likes)
            assert len(svc.plan_cache) == 2
            store.add_term_triple("b", "knows", "c")
            # Re-planned with the written predicate's new statistics...
            assert svc.evaluate(knows).stats["service"]["plan_cache"] == "miss"
            # ...while the plan the write could not affect is reused.
            assert svc.evaluate(likes).stats["service"]["plan_cache"] == "hit"
            stats = svc.plan_cache.stats()
            assert (stats.hits, stats.stale_drops) == (1, 1)

    def test_disabled_result_cache(self, mini_yago, mined_queries):
        with QueryService(mini_yago, max_workers=1, result_cache_size=0,
                          coalesce=False) as svc:
            first = svc.evaluate(mined_queries[0])
            second = svc.evaluate(mined_queries[0])
            assert second.stats["service"]["result_cache"] == "miss"
            assert first.count == second.count


class TestRowLimit:
    """A submission's ``limit`` reaches phase 2: a miss builds at most
    that many rows, and the entry it leaves serves no larger limit."""

    @staticmethod
    def outcomes(svc, query, limits):
        results = [svc.evaluate(query, limit=limit) for limit in limits]
        return results, [r.stats["service"]["result_cache"] for r in results]

    def test_a_smaller_limit_after_a_larger_one_is_a_hit(self, service):
        query = parse_sparql(MANY_ROWS)
        (five, three), outcomes = self.outcomes(service, query, [5, 3])
        assert outcomes == ["miss", "hit"]
        assert five.rows == three.rows and len(five.rows) == 5
        assert five.count == three.count > 5

    def test_a_larger_limit_re_expands_and_replaces_the_entry(self, service):
        query = parse_sparql(MANY_ROWS)
        limits = [3, 5, 5, None, None, 2]
        results, outcomes = self.outcomes(service, query, limits)
        assert outcomes == ["miss", "miss", "hit", "miss", "hit", "hit"]
        full = WireframeEngine(service.store).evaluate(query)
        assert {r.count for r in results} == {full.count}
        assert [len(r.rows) for r in results] == [3, 5, 5, full.count, full.count,
                                                  full.count]
        assert results[0].rows == results[1].rows[:3] == results[3].rows[:3]
        assert len(service.result_cache) == 1
        stats = service.result_cache.stats()
        assert (stats.hits, stats.misses, stats.stale_drops) == (3, 3, 0)

    def test_limit_zero_builds_no_row_and_counts_exactly(self, service, mini_yago):
        query = parse_sparql(MANY_ROWS)
        result = service.evaluate(query, limit=0)
        assert result.rows == []
        assert result.count == WireframeEngine(service.store).evaluate(
            query, materialize=False
        ).count
        doc = result.to_dict(mini_yago.dictionary, limit=0)
        assert (doc["rows"], doc["truncated"]) == ([], True)

    def test_truncated_when_a_prefix_entry_serves_a_hit(self, service, mini_yago):
        query = parse_sparql(MANY_ROWS)
        service.evaluate(query, limit=4)
        hit = service.evaluate(query, limit=4)
        assert hit.stats["service"]["result_cache"] == "hit"
        for limit in (2, 4):
            doc = hit.to_dict(mini_yago.dictionary, limit=limit)
            assert len(doc["rows"]) == limit and doc["truncated"] is True
        # An answer with no more rows than the limit is whole, not cut.
        few = parse_sparql("select ?x where { ?x actedIn ?m . ?x wasBornIn ?c }")
        count = WireframeEngine(service.store).evaluate(few).count
        whole = service.evaluate(few, limit=count)
        assert whole.to_dict(mini_yago.dictionary, limit=count)["truncated"] is False
        assert service.evaluate(few).stats["service"]["result_cache"] == "hit"

    def test_count_only_submissions_ignore_the_limit(self, service):
        query = parse_sparql(MANY_ROWS)
        outcomes = [
            service.evaluate(query, materialize=False, limit=limit)
            .stats["service"]["result_cache"]
            for limit in (3, None, 10)
        ]
        assert outcomes == ["miss", "hit", "hit"]


class TestDeadlines:
    def test_expired_deadline_times_out(self, service, mined_queries):
        with pytest.raises(EvaluationTimeout):
            service.submit(mined_queries[0], deadline=expired_deadline()).result(30)

    def test_mixed_deadlines_in_batch(self, mini_yago, mined_queries):
        queries = mined_queries[:4]
        deadlines = [None, expired_deadline(), 30.0, expired_deadline()]
        with QueryService(mini_yago, max_workers=2,
                          result_cache_size=0, coalesce=False) as svc:
            results = svc.evaluate_many(
                queries, deadlines=deadlines, return_exceptions=True
            )
        assert isinstance(results[1], EvaluationTimeout)
        assert isinstance(results[3], EvaluationTimeout)
        serial = WireframeEngine(mini_yago)
        assert results[0].count == serial.evaluate(queries[0]).count
        assert results[2].count == serial.evaluate(queries[2]).count
        assert svc.snapshot()["timeouts"] == 2

    def test_timeout_raises_without_return_exceptions(self, service,
                                                      mined_queries):
        with pytest.raises(EvaluationTimeout):
            service.evaluate_many(
                [mined_queries[0]], deadlines=[expired_deadline()]
            )

    def test_deadline_count_mismatch(self, service, mined_queries):
        with pytest.raises(ValueError):
            service.evaluate_many(mined_queries[:2], deadlines=[None])

    def test_scalar_float_deadline_applies_to_all(self, service, mined_queries):
        results = service.evaluate_many(mined_queries[:2], deadlines=60.0)
        assert all(r.count >= 0 for r in results)


class TestCoalescing:
    def _slow_engine(self, svc, delay=0.05):
        original = svc.engine.evaluate_detailed

        def slowed(*args, **kwargs):
            time.sleep(delay)
            return original(*args, **kwargs)

        svc.engine.evaluate_detailed = slowed

    def test_in_flight_duplicates_coalesce(self, mini_yago, mined_queries):
        query = mined_queries[0]
        with QueryService(mini_yago, max_workers=2,
                          result_cache_size=0) as svc:
            self._slow_engine(svc)
            futures = [svc.submit(query) for _ in range(5)]
            counts = {f.result(30).count for f in futures}
        assert len(counts) == 1
        snap = svc.snapshot()
        assert snap["coalesced"] == 4
        # Exactly one evaluation ran: the others were deduplicated.
        assert snap["latency_seconds"]["exec"]["count"] == 1

    def test_leader_timeout_retries_follower(self, mini_yago, mined_queries):
        blocker, query = mined_queries[0], mined_queries[1]
        with QueryService(mini_yago, max_workers=1,
                          result_cache_size=0) as svc:
            self._slow_engine(svc)
            svc.submit(blocker)  # occupies the single worker
            leader = svc.submit(query, deadline=expired_deadline())
            follower = svc.submit(query)  # coalesces onto the leader
            with pytest.raises(EvaluationTimeout):
                leader.result(30)
            # The follower is transparently resubmitted under its own
            # (unlimited) deadline and succeeds.
            expected = WireframeEngine(mini_yago).evaluate(query).count
            assert follower.result(30).count == expected

    def test_stricter_deadline_does_not_coalesce(self, mini_yago,
                                                 mined_queries):
        # A follower with a tighter budget than the leader must keep its
        # own deadline enforceable, so it evaluates independently.
        query = mined_queries[0]
        with QueryService(mini_yago, max_workers=2,
                          result_cache_size=0) as svc:
            self._slow_engine(svc, delay=0.05)
            lead = svc.submit(query)                   # unlimited budget
            strict = svc.submit(query, deadline=5.0)   # stricter
            assert lead.result(30).count == strict.result(30).count
        snap = svc.snapshot()
        assert snap["coalesced"] == 0
        assert snap["latency_seconds"]["exec"]["count"] == 2  # both evaluated

    def test_follower_counts_once_resolved(self, mini_yago, mined_queries):
        query = mined_queries[0]
        with QueryService(mini_yago, max_workers=2,
                          result_cache_size=0) as svc:
            self._slow_engine(svc)
            futures = [svc.submit(query) for _ in range(4)]
            for future in futures:
                future.result(30)
        # 1 leader + 3 followers, all successful: the books balance.
        snap = svc.snapshot()
        assert (snap["coalesced"], snap["completed"], snap["failures"]) == (3, 4, 0)

    def test_follower_attaches_only_to_a_leader_covering_its_limit(
        self, mini_yago, mined_queries
    ):
        blocker, query = mined_queries[0], parse_sparql(MANY_ROWS)
        with QueryService(mini_yago, max_workers=1,
                          result_cache_size=0) as svc:
            self._slow_engine(svc)
            svc.submit(blocker)  # occupies the single worker
            leader = svc.submit(query, limit=3)
            wider = svc.submit(query, limit=5)      # evaluates on its own
            unlimited = svc.submit(query)           # so does this one
            narrower = svc.submit(query, limit=2)   # attaches
            assert svc.snapshot()["coalesced"] == 1
            assert len(leader.result(30).rows) == 3
            assert len(wider.result(30).rows) == 5
            assert narrower.result(30).rows == leader.result(30).rows
            assert narrower.result(30).stats["service"]["result_cache"] == "coalesced"
            full = unlimited.result(30)
            assert len(full.rows) == full.count > 5
            # An unlimited leader covers every limit.
            svc.submit(blocker)
            lead = svc.submit(query)
            follower = svc.submit(query, limit=7)
            assert svc.snapshot()["coalesced"] == 2
            assert follower.result(30).rows == lead.result(30).rows

    def test_leader_timeout_resubmits_follower_with_its_limit(
        self, mini_yago, mined_queries
    ):
        blocker, query = mined_queries[0], parse_sparql(MANY_ROWS)
        with QueryService(mini_yago, max_workers=1,
                          result_cache_size=0) as svc:
            self._slow_engine(svc)
            svc.submit(blocker)
            leader = svc.submit(query, deadline=expired_deadline())
            follower = svc.submit(query, limit=2)  # an unlimited leader covers it
            assert svc.snapshot()["coalesced"] == 1
            with pytest.raises(EvaluationTimeout):
                leader.result(30)
            result = follower.result(30)
            assert len(result.rows) == 2 < result.count

    def test_coalescing_disabled(self, mini_yago, mined_queries):
        query = mined_queries[0]
        with QueryService(mini_yago, max_workers=2, result_cache_size=0,
                          coalesce=False) as svc:
            futures = [svc.submit(query) for _ in range(3)]
            counts = {f.result(30).count for f in futures}
        assert len(counts) == 1
        assert svc.snapshot()["coalesced"] == 0


class TestStatsBooks:
    def test_concurrent_recording_loses_no_update(self, mini_yago, mined_queries):
        """Submitting threads, pool workers and coalescing callbacks all
        record into the same registry children: under a short switch
        interval every submission still counts exactly once."""
        callers, per_caller = 6, 40

        def caller(i):
            futures = [
                svc.submit(mined_queries[(i + j) % len(mined_queries)])
                for j in range(per_caller)
            ]
            return [f.result(30) for f in futures]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryService(mini_yago, max_workers=4, result_cache_size=2) as svc:
                with ThreadPoolExecutor(max_workers=callers) as pool:
                    list(pool.map(caller, range(callers), timeout=60))
                snap = svc.snapshot()
        finally:
            sys.setswitchinterval(interval)
        submitted = callers * per_caller
        assert snap["completed"] == submitted
        assert (snap["queue_depth"], snap["in_flight"], snap["failures"]) == (0, 0, 0)
        # Followers take their leader's answer and record no latency.
        assert snap["latency_seconds"]["total"]["count"] == submitted - snap["coalesced"]


class TestAcceptanceScenario:
    """The issue's acceptance bar: 100 mixed queries match serial exactly."""

    def test_hundred_mixed_queries_match_serial(self, mini_yago,
                                                mini_yago_catalog):
        miner = QueryMiner(mini_yago, seed=11, forbidden_labels=["rdf:type"])
        chains = miner.mine(chain_template(3), count=4)
        diamonds = list(paper_diamond_queries())[:3]
        snowflakes = list(paper_snowflake_queries())[:3]
        distinct = chains + diamonds + snowflakes

        probe = parse_sparql("select ?x, ?m where { ?x actedIn ?m }")
        rows = WireframeEngine(mini_yago, mini_yago_catalog).evaluate(probe).rows
        decode = mini_yago.dictionary.decode
        movies = sorted({decode(r[1]) for r in rows})[:10]
        anchored = [
            ConjunctiveQuery([("?x", "actedIn", Const(m))], name=f"anchor-{m}")
            for m in movies
        ]

        queries = (distinct + anchored) * 5
        queries = queries[:100]
        assert len(queries) == 100

        serial = WireframeEngine(mini_yago, mini_yago_catalog)
        expected = [serial.evaluate(q, materialize=False).count
                    for q in queries]

        with QueryService(mini_yago, catalog=mini_yago_catalog,
                          max_workers=8) as svc:
            results = svc.evaluate_many(queries, materialize=False)
            snapshot = svc.snapshot()

        assert [r.count for r in results] == expected
        assert snapshot["plan_cache"]["hit_rate"] > 0.0
        assert (snapshot["result_cache"]["hits"] + snapshot["coalesced"]) > 0


class TestBackendSurfacing:
    def test_snapshot_and_stats_carry_backend_name(self, service, mined_queries):
        result = service.evaluate(mined_queries[0])
        assert result.stats["backend"] == service.store.backend_name
        assert service.snapshot()["backend"] == service.store.backend_name

    def test_cache_keys_qualified_by_backend(self, mini_yago, mined_queries):
        """Two services over different physical layouts never alias
        cache entries: both keys carry the backend name."""
        from repro.service.signature import plan_signature, query_signature

        with QueryService(mini_yago, max_workers=1) as svc:
            query = mined_queries[0]
            svc.evaluate(query)
            result_key = (
                mini_yago.backend_name, query_signature(query), True,
            )
            versions = svc._versions(query)
            assert svc.result_cache.get_result(
                result_key, svc.epoch, lambda: versions
            ) is not None
            plan_key = (mini_yago.backend_name, plan_signature(query))
            assert svc.plan_cache.get_plan(plan_key, versions) is not None

    def test_columnar_store_served_identically(self, mini_yago, mined_queries):
        from repro.graph.store import TripleStore

        columnar = TripleStore(
            dictionary=mini_yago.dictionary, backend="columnar"
        )
        for s, p, o in mini_yago.triples():
            columnar.add(s, p, o)
        columnar.freeze()
        with QueryService(columnar, max_workers=2) as svc:
            assert svc.snapshot()["backend"] == "columnar"
            for query in mined_queries:
                got = svc.evaluate(query)
                expected = WireframeEngine(mini_yago).evaluate(query)
                assert got.count == expected.count
                assert sorted(got.rows) == sorted(expected.rows)
                assert got.stats["backend"] == "columnar"


class TestPersistence:
    """save_snapshot() / from_snapshot(): the snapshot-served lifecycle."""

    def test_persist_then_from_snapshot_round_trip(self, tmp_path, mini_yago,
                                                   mini_yago_catalog,
                                                   mined_queries):
        with QueryService(mini_yago, catalog=mini_yago_catalog) as service:
            live = [service.evaluate(q) for q in mined_queries]
            manifest = save_snapshot(service.store, tmp_path / "snap")
        assert manifest["num_triples"] == mini_yago.num_triples
        assert manifest["epoch"] == mini_yago.epoch

        with QueryService.from_snapshot(tmp_path / "snap") as warm:
            assert warm.store.frozen
            assert warm.store.num_triples == mini_yago.num_triples
            for query, expect in zip(mined_queries, live):
                got = warm.evaluate(query)
                assert got.count == expect.count
                assert sorted(got.rows) == sorted(expect.rows)

    def test_from_snapshot_backend_and_mmap(self, tmp_path, mini_yago,
                                            mined_queries):
        with QueryService(mini_yago) as service:
            expect = service.evaluate(mined_queries[0])
            save_snapshot(service.store, tmp_path / "snap")
        with QueryService.from_snapshot(
            tmp_path / "snap", backend="columnar"
        ) as warm:
            assert warm.store.backend_name == "columnar"
            assert isinstance(warm.store.dictionary, MmapDictionary)
            got = warm.evaluate(mined_queries[0])
            assert sorted(got.rows) == sorted(expect.rows)

    def test_snapshot_reports_source_path_and_generation(
        self, tmp_path, mini_yago
    ):
        """/v1/stats consumers see *which* snapshot is being served."""
        with QueryService(mini_yago) as service:
            assert service.snapshot()["snapshot"] == {
                "path": None, "generation": None,
            }
            save_snapshot(service.store, tmp_path / "snap")
        with QueryService.from_snapshot(tmp_path / "snap") as warm:
            gauges = warm.snapshot()
            assert gauges["snapshot"]["path"] == str(tmp_path / "snap")
            assert gauges["snapshot"]["generation"] == 0
            assert gauges["read_only"] is True  # no write-ahead log

    def test_read_only_service_refuses_writer_operations(
        self, tmp_path, mini_yago, mined_queries
    ):
        """Worker mode (a snapshot without its WAL): reads work, and
        there is nothing to persist or compact."""
        with QueryService(mini_yago) as service:
            expect = service.evaluate(mined_queries[0])
            save_snapshot(service.store, tmp_path / "snap")
        with QueryService.from_snapshot(tmp_path / "snap") as worker:
            got = worker.evaluate(mined_queries[0])
            assert sorted(got.rows) == sorted(expect.rows)
            assert worker.durable is None
            assert worker.snapshot()["read_only"] is True
            assert not hasattr(worker, "persist")
            with pytest.raises(StoreError):
                worker.compact()

    def test_from_snapshot_uses_stored_catalog(self, tmp_path, mini_yago):
        with QueryService(mini_yago) as service:
            save_snapshot(service.store, tmp_path / "snap")
        with QueryService.from_snapshot(tmp_path / "snap") as warm:
            # catalog arrived from disk: identical statistics without a
            # rebuild against the loaded store
            assert warm.engine.catalog == mini_yago.catalog()

    def test_persist_without_catalog(self, tmp_path, mini_yago):
        from repro.storage import load_snapshot_catalog

        with QueryService(mini_yago) as service:
            save_snapshot(service.store, tmp_path / "snap", include_catalog=False)
        assert load_snapshot_catalog(tmp_path / "snap") is None

    def test_persist_after_mutation_stores_fresh_catalog(self, tmp_path):
        from repro.graph.store import TripleStore
        from repro.storage import load_snapshot_catalog, read_manifest

        store = TripleStore()
        store.add_term_triple("a", "p", "b")
        service = QueryService(store)
        try:
            store.add_term_triple("b", "p", "c")  # mutate after engine built
            save_snapshot(service.store, tmp_path / "snap")
        finally:
            service.close()
        manifest = read_manifest(tmp_path / "snap")
        assert manifest["num_triples"] == 2
        catalog = load_snapshot_catalog(tmp_path / "snap")
        p = store.dictionary.lookup("p")
        assert catalog.unigram(p).count == 2  # not the stale epoch-1 count
