"""Tests for opening a stored dataset: a snapshot plus its catalog."""

import pytest

from repro.datasets.loader import load_dataset
from repro.datasets.motifs import figure1_graph
from repro.stats.catalog import build_catalog
from repro.storage import save_snapshot


def test_roundtrip_preserves_ids_and_triples(tmp_path):
    store = figure1_graph()
    catalog = build_catalog(store)
    save_snapshot(store, str(tmp_path / "snap"), catalog=catalog)
    restored, restored_catalog = load_dataset(str(tmp_path / "snap"))
    assert restored.num_triples == store.num_triples
    assert set(restored.triples()) == set(store.triples())
    assert list(restored.dictionary) == list(store.dictionary)
    assert restored_catalog.unigrams == catalog.unigrams
    assert restored_catalog.bigrams == catalog.bigrams
    assert restored.frozen


def test_catalog_computed_when_omitted(tmp_path):
    store = figure1_graph()
    save_snapshot(store, str(tmp_path / "snap"))
    _, catalog = load_dataset(str(tmp_path / "snap"))
    assert catalog.num_triples == store.num_triples


def test_catalog_ids_valid_after_reload(tmp_path):
    store = figure1_graph()
    save_snapshot(store, str(tmp_path / "snap"))
    restored, catalog = load_dataset(str(tmp_path / "snap"))
    a = restored.dictionary.lookup("A")
    assert catalog.unigram(a).count == restored.count(a)


def test_queries_identical_after_reload(tmp_path):
    from repro.core.engine import WireframeEngine
    from repro.datasets.motifs import figure1_query

    store = figure1_graph()
    save_snapshot(store, str(tmp_path / "snap"))
    restored, catalog = load_dataset(str(tmp_path / "snap"))
    before = WireframeEngine(store).evaluate(figure1_query())
    after = WireframeEngine(restored, catalog).evaluate(figure1_query())
    assert sorted(before.rows) == sorted(after.rows)


def test_load_dataset_snapshot_without_catalog_rebuilds(tmp_path):
    store = figure1_graph()
    save_snapshot(store, str(tmp_path / "snap"), include_catalog=False)
    restored, catalog = load_dataset(str(tmp_path / "snap"))
    assert catalog.unigrams == build_catalog(store).unigrams


def test_load_dataset_snapshot_backend_choice(tmp_path):
    store = figure1_graph()
    catalog = build_catalog(store)
    save_snapshot(store, str(tmp_path / "snap"), catalog=catalog)
    for backend in ("hashdict", "columnar"):
        restored, restored_catalog = load_dataset(
            str(tmp_path / "snap"), backend=backend
        )
        assert restored.backend_name == backend
        assert set(restored.triples()) == set(store.triples())
        assert restored_catalog.unigrams == catalog.unigrams


def test_batched_helper_shapes():
    from repro.utils.batching import batched

    assert list(batched(range(7), 3)) == [[0, 1, 2], [3, 4, 5], [6]]
    assert list(batched([], 3)) == []
    with pytest.raises(ValueError):
        list(batched(range(3), 0))


def test_load_dataset_detects_snapshot(tmp_path):
    store = figure1_graph()
    catalog = build_catalog(store)
    save_snapshot(store, str(tmp_path / "snap"), catalog=catalog)
    restored, restored_catalog = load_dataset(str(tmp_path / "snap"))
    assert set(restored.triples()) == set(store.triples())
    assert list(restored.dictionary) == list(store.dictionary)
    assert restored_catalog.unigrams == catalog.unigrams
    assert restored.frozen
