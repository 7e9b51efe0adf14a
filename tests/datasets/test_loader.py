"""Tests for dataset persistence."""

import pytest

from repro.datasets.loader import TRIPLES_FILE, load_dataset, save_dataset
from repro.datasets.motifs import figure1_graph
from repro.stats.catalog import build_catalog


def test_roundtrip_preserves_ids_and_triples(tmp_path):
    store = figure1_graph()
    catalog = build_catalog(store)
    save_dataset(store, str(tmp_path), catalog)
    restored, restored_catalog = load_dataset(str(tmp_path))
    assert restored.num_triples == store.num_triples
    assert set(restored.triples()) == set(store.triples())
    assert list(restored.dictionary) == list(store.dictionary)
    assert restored_catalog.unigrams == catalog.unigrams
    assert restored_catalog.bigrams == catalog.bigrams
    assert restored.frozen


def test_catalog_computed_when_omitted(tmp_path):
    store = figure1_graph()
    save_dataset(store, str(tmp_path))
    _, catalog = load_dataset(str(tmp_path))
    assert catalog.num_triples == store.num_triples


def test_catalog_ids_valid_after_reload(tmp_path):
    store = figure1_graph()
    save_dataset(store, str(tmp_path))
    restored, catalog = load_dataset(str(tmp_path))
    a = restored.dictionary.lookup("A")
    assert catalog.unigram(a).count == restored.count(a)


def test_load_unfrozen(tmp_path):
    save_dataset(figure1_graph(), str(tmp_path))
    restored, _ = load_dataset(str(tmp_path), freeze=False)
    assert not restored.frozen


def test_newline_terms_rejected(tmp_path):
    from repro.graph.builder import GraphBuilder

    store = GraphBuilder().edge("a\nb", "p", "c").build()
    with pytest.raises(ValueError):
        save_dataset(store, str(tmp_path))


@pytest.mark.parametrize("row", ["1\tx\t2\n", "1\t2\n"])
def test_malformed_triple_row_raises_value_error(tmp_path, row):
    save_dataset(figure1_graph(), str(tmp_path))
    with open(tmp_path / TRIPLES_FILE, "a", encoding="utf-8") as f:
        f.write(row)
    with pytest.raises(ValueError):
        load_dataset(str(tmp_path))


@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
@pytest.mark.parametrize("batch_size", [1, 2, 4096])
@pytest.mark.parametrize("rows", ["1\t2\t3\t4\n5\t6\n", "\n", "1\t2\n3\t4\n"])
def test_rows_of_the_wrong_width_raise_value_error(tmp_path, rows, batch_size):
    """Six fields over two rows (or a blank line, or rows all two wide)
    are not two triples, however the file is batched: a parse that
    reshaped the whole batch to three columns would accept the first."""
    save_dataset(figure1_graph(), str(tmp_path))
    with open(tmp_path / TRIPLES_FILE, "a", encoding="utf-8") as f:
        f.write(rows)
    with pytest.raises(ValueError):
        load_dataset(str(tmp_path), batch_size=batch_size)


def test_queries_identical_after_reload(tmp_path):
    from repro.core.engine import WireframeEngine
    from repro.datasets.motifs import figure1_query

    store = figure1_graph()
    save_dataset(store, str(tmp_path))
    restored, catalog = load_dataset(str(tmp_path))
    before = WireframeEngine(store).evaluate(figure1_query())
    after = WireframeEngine(restored, catalog).evaluate(figure1_query())
    assert sorted(before.rows) == sorted(after.rows)


# ----------------------------------------------------------------------
# Snapshot-aware loading & streaming batches
# ----------------------------------------------------------------------


def test_load_dataset_detects_snapshot(tmp_path):
    from repro.storage import save_snapshot

    store = figure1_graph()
    catalog = build_catalog(store)
    save_snapshot(store, str(tmp_path / "snap"), catalog=catalog)
    restored, restored_catalog = load_dataset(str(tmp_path / "snap"))
    assert set(restored.triples()) == set(store.triples())
    assert list(restored.dictionary) == list(store.dictionary)
    assert restored_catalog.unigrams == catalog.unigrams
    assert restored.frozen


def test_load_dataset_snapshot_without_catalog_rebuilds(tmp_path):
    from repro.storage import save_snapshot

    store = figure1_graph()
    save_snapshot(store, str(tmp_path / "snap"), include_catalog=False)
    restored, catalog = load_dataset(str(tmp_path / "snap"))
    assert catalog.unigrams == build_catalog(store).unigrams


def test_load_dataset_snapshot_backend_choice(tmp_path):
    from repro.storage import save_snapshot

    store = figure1_graph()
    save_snapshot(store, str(tmp_path / "snap"))
    for backend in ("hashdict", "columnar"):
        restored, _ = load_dataset(str(tmp_path / "snap"), backend=backend)
        assert restored.backend_name == backend
        assert set(restored.triples()) == set(store.triples())


def test_text_load_batched_matches_default(tmp_path):
    store = figure1_graph()
    save_dataset(store, str(tmp_path))
    tiny, _ = load_dataset(str(tmp_path), batch_size=2)
    full, _ = load_dataset(str(tmp_path))
    assert set(tiny.triples()) == set(full.triples())
    assert list(tiny.dictionary) == list(full.dictionary)


def test_batched_helper_shapes():
    from repro.utils.batching import batched

    assert list(batched(range(7), 3)) == [[0, 1, 2], [3, 4, 5], [6]]
    assert list(batched([], 3)) == []
    with pytest.raises(ValueError):
        list(batched(range(3), 0))
