"""Format v2: terms.idx, lazy_terms resolution, and the service path."""

import json

import pytest

from repro.errors import DictionaryError, SnapshotError
from repro.graph.backends import available_backends
from repro.graph.dictionary import Dictionary
from repro.service import QueryService
from repro.storage import (
    FORMAT_VERSION,
    MANIFEST_FILE,
    TERMS_IDX_FILE,
    MmapDictionary,
    load_snapshot,
    read_manifest,
    save_snapshot,
)

from tests.storage import faults
from tests.storage.test_snapshot import assert_same_contents, small_store


def strip_to_v1(path) -> None:
    """Rewrite a fresh snapshot as a format-v1 directory in place."""
    (path / TERMS_IDX_FILE).unlink()
    manifest_path = path / MANIFEST_FILE
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = 1
    del manifest["files"][TERMS_IDX_FILE]
    manifest_path.write_text(json.dumps(manifest))


# ----------------------------------------------------------------------
# Format facts
# ----------------------------------------------------------------------


def test_save_writes_v2_with_term_index(tmp_path):
    manifest = save_snapshot(small_store(), tmp_path / "snap")
    assert manifest["format_version"] == FORMAT_VERSION == 2
    assert TERMS_IDX_FILE in manifest["files"]
    assert (tmp_path / "snap" / TERMS_IDX_FILE).is_file()


def test_lazy_terms_resolution_defaults(tmp_path):
    save_snapshot(small_store("columnar"), tmp_path / "snap")
    # mmap'd columnar open -> lazy dictionary
    assert isinstance(
        load_snapshot(tmp_path / "snap", backend="columnar").dictionary,
        MmapDictionary,
    )
    # eager (non-mmap) open -> eager dictionary
    assert isinstance(
        load_snapshot(tmp_path / "snap", backend="hashdict").dictionary,
        Dictionary,
    )
    # forcing mmap pairs it with the lazy dictionary, any backend
    assert isinstance(
        load_snapshot(
            tmp_path / "snap", backend="hashdict", use_mmap=True
        ).dictionary,
        MmapDictionary,
    )
    # explicit overrides win in both directions
    assert isinstance(
        load_snapshot(
            tmp_path / "snap", backend="columnar", lazy_terms=False
        ).dictionary,
        Dictionary,
    )
    assert isinstance(
        load_snapshot(
            tmp_path / "snap", backend="hashdict", lazy_terms=True
        ).dictionary,
        MmapDictionary,
    )


@pytest.mark.parametrize("backend", available_backends())
def test_lazy_and_eager_loads_are_identical(tmp_path, backend):
    store = small_store("columnar")
    save_snapshot(store, tmp_path / "snap")
    lazy = load_snapshot(tmp_path / "snap", backend=backend, lazy_terms=True)
    eager = load_snapshot(tmp_path / "snap", backend=backend, lazy_terms=False)
    assert_same_contents(lazy, eager)
    assert_same_contents(store, lazy)
    # the lazy store's dictionary resolves terms both ways
    for term in store.dictionary:
        assert lazy.dictionary.lookup(term) == store.dictionary.lookup(term)


def test_query_results_bit_identical_across_dictionaries(tmp_path):
    from repro.core.engine import WireframeEngine
    from repro.query.parser import parse_sparql

    store = small_store("columnar")
    save_snapshot(store, tmp_path / "snap")
    query = parse_sparql("select ?a, ?b, ?c where { ?a knows ?b . ?b knows ?c }")
    fingerprints = set()
    for backend in available_backends():
        for lazy in (False, True):
            loaded = load_snapshot(
                tmp_path / "snap", backend=backend, lazy_terms=lazy
            )
            result = WireframeEngine(loaded).evaluate(query)
            decoded = tuple(sorted(result.decoded_rows(loaded.dictionary)))
            fingerprints.add((result.count, decoded))
    assert len(fingerprints) == 1


def test_lazy_store_refuses_new_terms_and_triples(tmp_path):
    save_snapshot(small_store("columnar"), tmp_path / "snap")
    loaded = load_snapshot(tmp_path / "snap", backend="columnar")
    assert loaded.frozen and loaded.dictionary.frozen
    with pytest.raises(DictionaryError, match="frozen"):
        loaded.dictionary.encode("brand-new-term")


def test_resave_of_lazy_store_is_byte_identical(tmp_path):
    store = small_store("columnar")
    first = save_snapshot(store, tmp_path / "a")
    lazy = load_snapshot(tmp_path / "a", backend="columnar")
    assert isinstance(lazy.dictionary, MmapDictionary)
    second = save_snapshot(lazy, tmp_path / "b")
    for rel in ("terms.dict", TERMS_IDX_FILE):
        assert first["files"][rel]["sha256"] == second["files"][rel]["sha256"]
    assert_same_contents(store, load_snapshot(tmp_path / "b"))


def test_corrupt_term_index_detected(tmp_path):
    save_snapshot(small_store("columnar"), tmp_path / "snap")
    victim = tmp_path / "snap" / TERMS_IDX_FILE
    faults.bit_flip(victim, -1)
    with pytest.raises(SnapshotError, match="checksum mismatch"):
        load_snapshot(tmp_path / "snap", backend="columnar", lazy_terms=True)


# ----------------------------------------------------------------------
# v1 backward compatibility (synthesized; the committed fixture is
# locked in separately by test_v1_compat.py)
# ----------------------------------------------------------------------


def test_v1_snapshot_loads_through_the_eager_path(tmp_path):
    store = small_store("columnar")
    save_snapshot(store, tmp_path / "snap")
    strip_to_v1(tmp_path / "snap")
    assert read_manifest(tmp_path / "snap")["format_version"] == 1
    for backend in available_backends():
        loaded = load_snapshot(tmp_path / "snap", backend=backend)
        assert isinstance(loaded.dictionary, Dictionary)
        assert_same_contents(store, loaded)


def test_v1_snapshot_refuses_explicit_lazy_terms(tmp_path):
    save_snapshot(small_store("columnar"), tmp_path / "snap")
    strip_to_v1(tmp_path / "snap")
    with pytest.raises(SnapshotError, match="no term index"):
        load_snapshot(tmp_path / "snap", backend="columnar", lazy_terms=True)


def test_v1_resave_upgrades_to_v2(tmp_path):
    store = small_store("columnar")
    save_snapshot(store, tmp_path / "old")
    strip_to_v1(tmp_path / "old")
    loaded = load_snapshot(tmp_path / "old", backend="columnar", freeze=True)
    manifest = save_snapshot(loaded, tmp_path / "new")
    assert manifest["format_version"] == FORMAT_VERSION
    upgraded = load_snapshot(tmp_path / "new", backend="columnar")
    assert isinstance(upgraded.dictionary, MmapDictionary)
    assert_same_contents(store, upgraded)


# ----------------------------------------------------------------------
# The service warm-start acceptance path
# ----------------------------------------------------------------------


def test_from_snapshot_never_materializes_term_to_id(tmp_path, monkeypatch):
    """QueryService.from_snapshot() on a columnar snapshot must not
    construct the eager dictionary's `_term_to_id` (or `_id_to_term`)
    — the tentpole acceptance criterion."""
    from repro.query.parser import parse_sparql

    store = small_store("columnar")
    save_snapshot(store, tmp_path / "snap")

    def exploding_load(*args, **kwargs):  # pragma: no cover - guard
        raise AssertionError("eager Dictionary.load() must not run")

    monkeypatch.setattr(Dictionary, "load", exploding_load)
    query = parse_sparql("select ?a, ?b where { ?a knows ?b }")
    with QueryService.from_snapshot(tmp_path / "snap", backend="columnar") as svc:
        dictionary = svc.store.dictionary
        assert isinstance(dictionary, MmapDictionary)
        assert not hasattr(dictionary, "_term_to_id")
        assert not hasattr(dictionary, "_id_to_term")
        result = svc.evaluate(query)
        rows = sorted(result.decoded_rows(dictionary))
    monkeypatch.undo()
    eager = load_snapshot(tmp_path / "snap", backend="columnar", lazy_terms=False)
    with QueryService(eager) as eager_svc:
        eager_rows = sorted(
            eager_svc.evaluate(query).decoded_rows(eager_svc.store.dictionary)
        )
    assert rows == eager_rows


def test_service_closes_the_mapped_dictionary_only_if_it_opened_it(tmp_path):
    save_snapshot(small_store("columnar"), tmp_path / "snap")
    with QueryService.from_snapshot(tmp_path / "snap", backend="columnar") as svc:
        opened = svc.store.dictionary
        assert not opened.closed
    assert opened.closed

    passed_in = load_snapshot(tmp_path / "snap", backend="columnar")
    assert isinstance(passed_in.dictionary, MmapDictionary)
    with QueryService(passed_in):
        pass
    assert not passed_in.dictionary.closed


def test_service_persist_round_trips_lazy_dictionary(tmp_path):
    store = small_store("columnar")
    save_snapshot(store, tmp_path / "a")
    with QueryService.from_snapshot(tmp_path / "a", backend="columnar") as svc:
        manifest = save_snapshot(svc.store, tmp_path / "b")
    assert manifest["num_terms"] == len(store.dictionary)
    assert_same_contents(store, load_snapshot(tmp_path / "b"))

