"""Multithreaded stress tests for the backend layer, and the
per-epoch rebuild of the node-first indexes.

The bug behind these tests: lazy permutation materialization used to
be guarded by store-level state while the physical indexes lived
elsewhere, so racing builders/readers (the QueryService thread pool)
could observe half-built indexes, build the same permutation twice, or
— worst — lose a concurrent insert from the freshly built index. The
build now lives in the backend layer
(:mod:`repro.graph.backends.permutations`): an index is built under the
backend's one write lock, tagged with the epoch it was built at, and
rebuilt by the first read after a write instead of being patched.
These tests hammer it from many threads through the node-first reads
that build it, ``out_edges`` (SPO) and ``in_edges`` (OPS), and pin
when a read reuses the index and when it rebuilds.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.graph.backends import ColumnarBackend, Segment, available_backends
from repro.graph.store import TripleStore

THREADS = 8
ROUNDS = 30


def build_store(backend: str, n: int = 400) -> TripleStore:
    store = TripleStore(backend=backend)
    for i in range(n):
        store.add_term_triple(f"s{i % 53}", f"p{i % 7}", f"o{i % 31}")
    return store


def node_first_triples(store: TripleStore) -> tuple[set, set]:
    """Every triple as the SPO and as the OPS index hold it, read
    node by node through ``out_edges`` / ``in_edges``."""
    nodes = sorted(store.nodes())
    spo = {
        (s, p, o)
        for s in nodes
        for p, objs in store.out_edges(s).items()
        for o in objs
    }
    ops = {
        (s, p, o)
        for o in nodes
        for p, subs in store.in_edges(o).items()
        for s in subs
    }
    return spo, ops


@pytest.mark.parametrize("backend", available_backends())
def test_concurrent_lazy_builds_with_readers(backend):
    """8 threads hammer lazy index builds while readers iterate."""
    for _ in range(ROUNDS):
        store = build_store(backend)
        store.freeze()
        expected_triples = set(store.triples())
        start = threading.Barrier(THREADS)
        errors: list[BaseException] = []

        def hammer(worker: int) -> None:
            try:
                start.wait()
                if worker % 2 == 0:
                    # Builder: read every node both ways, building
                    # both lazy permutations.
                    spo, ops = node_first_triples(store)
                    assert spo == ops == expected_triples
                else:
                    # Reader: single nodes' reads routed through the
                    # lazy SPO/OPS indexes mid-build.
                    s = store.dictionary.lookup("s1")
                    o = store.dictionary.lookup("o1")
                    assert {
                        (s, p, x)
                        for p, objs in store.out_edges(s).items()
                        for x in objs
                    } == {t for t in expected_triples if t.s == s}
                    assert {
                        (x, p, o)
                        for p, subs in store.in_edges(o).items()
                        for x in subs
                    } == {t for t in expected_triples if t.o == o}
                    assert set(store.triples()) == expected_triples
            except BaseException as exc:  # noqa: BLE001 - collected for report
                errors.append(exc)

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            list(pool.map(hammer, range(THREADS)))
        assert not errors, errors


@pytest.mark.parametrize("backend", available_backends())
def test_lazy_index_built_exactly_once(backend):
    """Racing builders publish one index object, never a half-built one."""
    for _ in range(ROUNDS):
        store = build_store(backend, n=200)
        store.freeze()
        s = store.dictionary.lookup("s1")
        start = threading.Barrier(THREADS)

        def build(_: int):
            start.wait()
            return store.out_edges(s)

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            views = list(pool.map(build, range(THREADS)))
        # One build: every thread got the same node's entry of one index.
        first = views[0]
        assert all(view is first for view in views)
        spo, _ = node_first_triples(store)
        assert spo == set(store.triples())
        assert len(spo) == store.num_triples


@pytest.mark.parametrize("backend", available_backends())
def test_insert_during_build_never_lost(backend):
    """A writer inserting while another thread materializes must end up
    in the built permutation (the freeze/lazy-build lost-update race)."""
    for round_no in range(ROUNDS):
        store = build_store(backend, n=300)
        barrier = threading.Barrier(2)
        new_triples = [(f"x{round_no}_{i}", "pnew", f"y{i}") for i in range(50)]

        def writer():
            barrier.wait()
            for s, p, o in new_triples:
                store.add_term_triple(s, p, o)

        def builder():
            barrier.wait()
            store.out_edges(store.dictionary.lookup("s1"))

        threads = [threading.Thread(target=writer), threading.Thread(target=builder)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for s, p, o in new_triples:
            sid = store.dictionary.lookup(s)
            pid = store.dictionary.lookup(p)
            oid = store.dictionary.lookup(o)
            assert oid in store.out_edges(sid)[pid], (s, p, o)


@pytest.mark.parametrize("backend", available_backends())
def test_batches_that_double_a_predicate_during_build_never_lost(backend):
    """Each batch at least doubles its predicate, so on columnar every
    one is merged and sealed at once while a builder materializes both
    node-first indexes, and a lock-free reader sees the predicate
    before or after each batch, never within one. (Hashdict's reads are
    safe only without a writer, so it runs no reader.)"""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for round_no in range(ROUNDS):
            store = build_store(backend, n=300)
            barrier = threading.Barrier(3)
            batches = [
                [(f"x{round_no}_{i}", "pnew", f"y{i}") for i in range(lo, 2 * lo)]
                for lo in (1, 2, 4, 8, 16, 32)
            ]
            prefixes = {0, 1, 3, 7, 15, 31, 63}
            done = threading.Event()
            errors: list[BaseException] = []

            def writer():
                barrier.wait()
                for batch in batches:
                    store.add_term_triples(batch)
                done.set()

            def builder():
                barrier.wait()
                store.out_edges(store.dictionary.lookup("s1"))
                store.in_edges(store.dictionary.lookup("o1"))

            def reader():
                barrier.wait()
                try:
                    while backend == "columnar" and not done.is_set():
                        p = store.dictionary.lookup("pnew")
                        if p is not None:
                            pairs = list(store.edges(p))
                            assert len(pairs) in prefixes
                            assert len(set(pairs)) == len(pairs)
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=f) for f in (writer, builder, reader)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert not errors, errors
            pid = store.dictionary.lookup("pnew")
            for batch in batches:
                for s, _, o in batch:
                    sid, oid = store.dictionary.lookup(s), store.dictionary.lookup(o)
                    assert oid in store.out_edges(sid)[pid], (s, o)
                    assert sid in store.in_edges(oid)[pid], (s, o)
            assert store.count(pid) == 63
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("backend", available_backends())
def test_concurrent_readers_seal_once(backend):
    """Unfrozen stores: concurrent first reads (which may trigger a
    columnar seal) agree with each other and with the writer's view."""
    for _ in range(ROUNDS):
        store = build_store(backend)
        p = store.dictionary.lookup("p1")
        expected = {(s, o) for s, o in store.edges(p)}  # seals p up front?
        # Rebuild so the first concurrent read really is the first read.
        store = build_store(backend)
        p = store.dictionary.lookup("p1")
        start = threading.Barrier(THREADS)

        def read(_: int):
            start.wait()
            return {(s, o) for s, os_ in store.adjacency(p).items() for o in os_}

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            views = list(pool.map(read, range(THREADS)))
        assert all(view == expected for view in views)


# ----------------------------------------------------------------------
# One build per epoch
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", available_backends())
def test_reads_without_a_write_between_share_one_build(backend):
    """Unfrozen, so the first build seals predicates on columnar: a seal
    moves no epoch, and the second read is the first one's index."""
    store = build_store(backend)
    s, o = store.dictionary.lookup("s1"), store.dictionary.lookup("o1")
    out, into = store.out_edges(s), store.in_edges(o)
    assert out and into
    assert store.out_edges(s) is out
    assert store.in_edges(o) is into
    store.nodes()
    store.catalog()
    assert store.out_edges(s) is out


@pytest.mark.parametrize("backend", available_backends())
def test_the_read_after_a_write_is_a_fresh_build(backend):
    store = build_store(backend)
    s = store.dictionary.lookup("s1")
    built = store.out_edges(s)
    before = {q: set(objs) for q, objs in built.items()}
    store.add_term_triples([("s1", "pfresh", "ofresh")])
    p, o = store.dictionary.lookup("pfresh"), store.dictionary.lookup("ofresh")
    after = store.out_edges(s)
    assert after is not built and after[p] == {o}
    assert store.in_edges(o) == {p: {s}}
    # The view read before the write is never patched.
    assert built == before
    store.remove_triples([(s, p, o)])
    assert store.out_edges(s) == before
    assert store.in_edges(o) == {}


@pytest.mark.parametrize("backend", available_backends())
def test_a_node_whose_last_triple_is_removed_leaves_the_index(backend):
    store = build_store(backend)
    store.add_term_triples([("lone", "p0", "leaf")])
    lone, leaf = store.dictionary.lookup("lone"), store.dictionary.lookup("leaf")
    p0 = store.dictionary.lookup("p0")
    assert store.out_edges(lone) == {p0: {leaf}}
    assert store.in_edges(leaf) == {p0: {lone}}
    assert store.remove_triples([(lone, p0, leaf)]) == 1
    assert store.out_edges(lone) == {} and store.in_edges(leaf) == {}
    spo, ops = node_first_triples(store)
    assert spo == ops == set(store.triples())
    assert lone not in store.nodes() and leaf not in store.nodes()


def test_imported_segments_are_in_the_next_build():
    """``import_segments`` moves the epoch like any write, whether it
    adopts a new predicate or merges into a held one."""
    backend = ColumnarBackend()
    backend.add_many([(1, 3, 2)])
    assert backend.out_edges(1) == {3: {2}}
    backend.import_segments(
        [(3, Segment.from_pairs([(1, 4)])), (5, Segment.from_pairs([(1, 2)]))]
    )
    assert backend.out_edges(1) == {3: {2, 4}, 5: {2}}
    assert backend.in_edges(2) == {3: {1}, 5: {1}}
