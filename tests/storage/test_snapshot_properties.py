"""Property tests: snapshot round-trips are lossless for *any* store.

Random labeled digraphs (the backend-parity suite's strategy) are
saved and warm-started back under every (source backend, destination
backend, mmap mode) combination; the loaded store must be
indistinguishable — triples, dictionary, catalog, and engine results.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import WireframeEngine
from repro.graph.backends import available_backends
from repro.stats.catalog import build_catalog
from repro.storage import load_snapshot, load_snapshot_catalog, save_snapshot

from tests.properties.strategies import (
    acyclic_queries,
    build_store,
    degree_table,
    edge_lists,
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@SETTINGS
@given(
    graph=edge_lists(),
    src=st.sampled_from(available_backends()),
    dst=st.sampled_from(available_backends()),
    use_mmap=st.booleans(),
)
def test_round_trip_is_lossless(tmp_path_factory, graph, src, dst, use_mmap):
    snap = tmp_path_factory.mktemp("snap-prop") / "snap"
    store = build_store(graph, backend=src)
    store.freeze()
    catalog = build_catalog(store)
    save_snapshot(store, snap, catalog=catalog)

    loaded = load_snapshot(snap, backend=dst, use_mmap=use_mmap)
    assert set(loaded.triples()) == set(store.triples())
    assert list(loaded.dictionary) == list(store.dictionary)
    assert degree_table(loaded) == degree_table(store)
    restored_catalog = load_snapshot_catalog(snap)
    assert restored_catalog.unigrams == catalog.unigrams
    assert restored_catalog.bigrams == catalog.bigrams
    rebuilt = build_catalog(loaded)
    assert rebuilt.unigrams == catalog.unigrams


@SETTINGS
@given(
    graph=edge_lists(),
    query=acyclic_queries(),
    dst=st.sampled_from(available_backends()),
)
def test_query_results_survive_round_trip(tmp_path_factory, graph, query, dst):
    snap = tmp_path_factory.mktemp("snap-prop") / "snap"
    store = build_store(graph)
    store.freeze()
    save_snapshot(store, snap)
    loaded = load_snapshot(snap, backend=dst)

    decode_live = store.dictionary.decode
    decode_loaded = loaded.dictionary.decode
    live = WireframeEngine(store).evaluate(query)
    warm = WireframeEngine(loaded).evaluate(query)
    assert warm.count == live.count
    assert {tuple(decode_loaded(v) for v in row) for row in warm.rows} == {
        tuple(decode_live(v) for v in row) for row in live.rows
    }
