"""Multithreaded stress tests for the backend layer.

The bug behind these tests: lazy permutation materialization used to
be guarded by store-level state while the physical indexes lived
elsewhere, so racing builders/readers (the QueryService thread pool)
could observe half-built indexes, build the same permutation twice, or
— worst — lose a concurrent insert from the freshly built index. The
lock and the lazy-build logic now live in the backend layer
(:mod:`repro.graph.backends.permutations`); these tests hammer them
from many threads through the node-first reads that build them,
``out_edges`` (SPO) and ``in_edges`` (OPS).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.graph.backends import available_backends
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
