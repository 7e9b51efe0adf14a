"""Predicate-level cache validity, checked against a cache-less engine.

A stateful interleaving of writes to predicate ``A`` with cached reads
over ``A`` and ``B``: no answer may ever be stale, a query the write
could not affect must keep hitting, and one it could must miss exactly
once. The same machine runs a second time with every read going
through a live HTTP server, where a hit is a memoized request plus the
bytes the result-cache entry rendered earlier: those bytes must change
with the next write to the query's predicate and be reused across any
other. Runs on whichever backend ``REPRO_BACKEND`` selects.
"""

import http.client
import json
import sys
import threading

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.engine import WireframeEngine
from repro.graph.store import TripleStore
from repro.query.parser import parse_sparql
from repro.server import serve_in_background
from repro.service.query_service import QueryService
from repro.stats.catalog import build_catalog

NODE = st.integers(min_value=0, max_value=5)
PAIRS = st.lists(st.tuples(NODE, NODE), min_size=1, max_size=4)

QUERIES = {
    "A": parse_sparql("select ?x, ?y where { ?x A ?y }"),
    "B": parse_sparql("select ?x, ?y where { ?x B ?y . ?y B ?z }"),
    "AB": parse_sparql("select ?x, ?z where { ?x A ?y . ?y B ?z }"),
    "A-anchored": parse_sparql("select ?y where { n0 A ?y }"),
    # A label the dictionary has never seen until the first such write.
    "new": parse_sparql("select ?x where { ?x fresh ?y }"),
}
#: Which written label can change which query's answer.
READS = {"A": {"A", "AB", "A-anchored"}, "fresh": {"new"}}


class WritesBesideCachedReads(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = TripleStore()
        self.store.add_term_triples(
            [(f"n{i}", "A", f"n{i + 1}") for i in range(3)]
            + [(f"n{i}", "B", f"n{(i * 2) % 5}") for i in range(5)]
        )
        self.service = QueryService(self.store, max_workers=1)
        #: Queries whose next read must miss: never read, or written under.
        self.must_miss = set(QUERIES)
        self.stale = 0

    def teardown(self):
        self.service.close()

    def _wrote(self, label: str, changed: int) -> None:
        if changed:
            self.must_miss |= READS[label]

    @rule(pairs=PAIRS, label=st.sampled_from(("A", "fresh")))
    def add(self, pairs, label):
        triples = [(f"n{s}", label, f"n{o}") for s, o in pairs]
        self._wrote(label, self.store.add_term_triples(triples))

    @rule(pairs=PAIRS)
    def remove(self, pairs):
        lookup = self.store.dictionary.lookup
        ids = [tuple(map(lookup, (f"n{s}", "A", f"n{o}"))) for s, o in pairs]
        self._wrote("A", self.store.remove_triples(
            [t for t in ids if None not in t]
        ))

    def _read(self, name) -> tuple[list, str]:
        """The served rows (decoded) and the result-cache outcome."""
        got = self.service.evaluate(QUERIES[name])
        return (
            got.decoded_rows(self.store.dictionary),
            got.stats["service"]["result_cache"],
        )

    @rule(name=st.sampled_from(sorted(QUERIES)))
    def read(self, name):
        rows, outcome = self._read(name)
        want = WireframeEngine(self.store).evaluate(QUERIES[name])
        if sorted(rows) != sorted(want.decoded_rows(self.store.dictionary)):
            self.stale += 1
        # B's entry outlives every write; one over a written label
        # misses once, then hits again.
        assert outcome == ("miss" if name in self.must_miss else "hit"), name
        self.must_miss.discard(name)

    @invariant()
    def never_a_stale_answer(self):
        assert self.stale == 0


TestWritesBesideCachedReads = WritesBesideCachedReads.TestCase
TestWritesBesideCachedReads.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None
)


class WritesBesideReadsOverHttp(WritesBesideCachedReads):
    """The same interleaving, read as response bytes."""

    def __init__(self):
        super().__init__()
        self.handle = serve_in_background(self.service)
        self.conn = http.client.HTTPConnection(*self.handle.address, timeout=30)
        self.bodies = {
            name: json.dumps(
                {"sparql": query.to_sparql(), "limit": None}
            ).encode()
            for name, query in QUERIES.items()
        }
        #: Queries whose cache entry has rendered its fragment: the next
        #: hit must reuse it, not render.
        self.rendered: set = set()

    def teardown(self):
        self.conn.close()
        self.handle.shutdown()
        super().teardown()

    def _read(self, name):
        before = self.handle.server.http_stats()["result_fragments"]
        self.conn.request("POST", "/v1/query", body=self.bodies[name])
        response = self.conn.getresponse()
        reply = response.read()
        assert response.status == 200
        result = json.loads(reply)["result"]
        outcome = result["stats"]["service"]["result_cache"]
        after = self.handle.server.http_stats()["result_fragments"]
        reused = outcome == "hit" and name in self.rendered
        assert after == {
            "rendered": before["rendered"] + (not reused),
            "reused": before["reused"] + reused,
        }, name
        # A miss renders its own copy; the entry renders on its first hit.
        (self.rendered.add if outcome == "hit" else self.rendered.discard)(name)
        return [tuple(row) for row in result["rows"]], outcome


TestWritesBesideReadsOverHttp = WritesBesideReadsOverHttp.TestCase
TestWritesBesideReadsOverHttp.settings = TestWritesBesideCachedReads.settings


def test_write_read_mix_cycle_counts():
    """The benchmark's cycle in miniature: one write to ``link`` then
    reads over it and over untouched predicates — per cycle the two
    ``link`` queries miss once each and everything else hits."""
    store = TripleStore()
    store.add_term_triples(
        [(f"m{i}", "actedIn", f"f{i % 3}") for i in range(9)]
        + [(f"f{i}", "directedBy", f"d{i}") for i in range(3)]
    )
    probe = parse_sparql("select ?a, ?b where { ?a link ?b }")
    chain = parse_sparql("select ?a, ?c where { ?a link ?b . ?b link ?c }")
    other = [
        parse_sparql("select ?m, ?d where { ?m actedIn ?f . ?f directedBy ?d }"),
        parse_sparql("select ?m where { ?m actedIn ?f }"),
    ]
    with QueryService(store, max_workers=1) as svc:
        for q in other:
            svc.evaluate(q)
        before = svc.snapshot()
        for cycle in range(1, 6):
            store.add_term_triples(
                [(f"w{cycle}:{i}", "link", f"w{cycle}:{i + 1}") for i in range(4)]
            )
            assert svc.evaluate(probe).count == 4 * cycle
            assert svc.evaluate(chain).count == 3 * cycle
            for q in other + [probe, chain]:
                assert svc.evaluate(q).stats["service"]["result_cache"] == "hit"
        after = svc.snapshot()
    hits = after["result_cache"]["hits"] - before["result_cache"]["hits"]
    misses = after["result_cache"]["misses"] - before["result_cache"]["misses"]
    assert (hits, misses) == (5 * 4, 5 * 2)
    # First write: nothing cached over `link` yet; each later one drops
    # exactly the two entries over it.
    assert after["result_cache"]["stale_drops"] == 4 * 2
    assert after["plan_cache"]["stale_drops"] == 4 * 2
    assert after["catalog_refreshes"]["full"] == before["catalog_refreshes"]["full"]
    assert after["catalog_refreshes"]["delta"] == 5

    # The same counts through the metrics registry, strict-parsed.
    from repro.obs.exposition import (
        parse_exposition, render_registries, sample_value,
    )

    families = parse_exposition(render_registries(svc.metrics))
    assert families["repro_catalog_refreshes_total"]["type"] == "counter"
    assert sample_value(
        families, "repro_catalog_refreshes_total", {"kind": "delta"}
    ) == 5
    assert sample_value(
        families, "repro_cache_stale_drops_total", {"cache": "result"}
    ) == 8
    assert sample_value(
        families, "repro_cache_stale_drops_total", {"cache": "plan"}
    ) == 8


def test_readers_of_other_predicates_never_miss_while_a_writer_runs():
    """More threads than cores: one writer on ``A``, readers on ``B``.
    Every refresh the readers trigger patches the catalog under the
    write lock; a lost update would leave it unequal to a rebuild, and
    a re-stamp race would surface as a miss or a wrong count."""
    store = TripleStore()
    store.add_term_triples(
        [(f"n{i}", "B", f"n{(i * 3) % 7}") for i in range(7)]
        + [("n0", "A", "n1")]
    )
    query = QUERIES["B"]
    errors: list = []
    outcomes: set = set()
    done = threading.Event()

    with QueryService(store, max_workers=2) as svc:
        want = svc.evaluate(query).count

        def reader():
            try:
                while not done.is_set():
                    got = svc.evaluate(query)
                    outcomes.add(got.stats["service"]["result_cache"])
                    assert got.count == want
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def writer():
            try:
                for i in range(300):
                    store.add_term_triples([(f"w{i}", "A", f"w{i + 1}")])
                    if i % 3 == 2:
                        store.remove_term_triple(f"w{i - 1}", "A", f"w{i}")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(4)]
            threads.append(threading.Thread(target=writer))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert outcomes <= {"hit", "coalesced"}
        assert svc.result_cache.stats().stale_drops == 0
    assert store.catalog() == build_catalog(store)
    assert store._pending == []  # drained, however the refreshes split
