"""Tests for the durable snapshot layer (repro.storage)."""

import json
import os
import random

import pytest

from repro.errors import SnapshotError, SnapshotMutatedError
from repro.graph.backends import available_backends
from repro.graph.backends.base import Segment
from repro.graph.store import TripleStore
from repro.storage import (
    FORMAT_VERSION,
    MANIFEST_FILE,
    TERMS_FILE,
    is_snapshot,
    load_snapshot,
    load_snapshot_catalog,
    read_manifest,
    read_segment,
    save_snapshot,
    segment_to_bytes,
    segment_view,
)
from repro.storage import snapshot as snapshot_mod

from tests.properties.strategies import degree_table
from tests.storage import faults

BACKENDS = available_backends()


def small_store(backend=None) -> TripleStore:
    store = TripleStore(backend=backend)
    store.add_term_triples(
        [
            ("alice", "knows", "bob"),
            ("bob", "knows", "carol"),
            ("carol", "knows", "alice"),
            ("alice", "likes", "carol"),
            ("dave", "knows", "alice"),
            ("term with spaces", "likes", 'weird "term"\nnewline'),
        ]
    )
    store.freeze()
    return store


def assert_same_contents(a: TripleStore, b: TripleStore) -> None:
    assert set(a.triples()) == set(b.triples())
    assert list(a.dictionary) == list(b.dictionary)
    assert a.num_triples == b.num_triples
    assert a.predicates() == b.predicates()
    assert degree_table(a) == degree_table(b)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------


@pytest.mark.parametrize("src", BACKENDS)
@pytest.mark.parametrize("dst", BACKENDS)
def test_round_trip_across_backends(tmp_path, src, dst):
    store = small_store(src)
    manifest = save_snapshot(store, tmp_path / "snap")
    assert manifest["backend"] == src
    assert manifest["format_version"] == FORMAT_VERSION
    loaded = load_snapshot(tmp_path / "snap", backend=dst)
    assert loaded.backend_name == dst
    assert loaded.frozen
    assert_same_contents(store, loaded)


@pytest.mark.parametrize("use_mmap", [False, True])
def test_mmap_and_eager_loads_agree(tmp_path, use_mmap):
    store = small_store("columnar")
    save_snapshot(store, tmp_path / "snap")
    loaded = load_snapshot(tmp_path / "snap", backend="columnar", use_mmap=use_mmap)
    assert_same_contents(store, loaded)
    # kernel views work over the loaded layout
    p = loaded.dictionary.lookup("knows")
    adjacency = loaded.adjacency(p)
    assert {
        (s, o) for s, objs in adjacency.items() for o in objs
    } == set(loaded.edges(p))
    assert loaded.subject_set(p) == store.subject_set(p)


def test_catalog_round_trip(tmp_path):
    store = small_store()
    catalog = store.catalog()
    save_snapshot(store, tmp_path / "snap", catalog=catalog)
    restored = load_snapshot_catalog(tmp_path / "snap")
    assert restored.unigrams == catalog.unigrams
    assert restored.bigrams == catalog.bigrams


def test_catalog_file_is_byte_identical_across_backends(tmp_path):
    """Bigrams are written in key order, not set order: the same triples
    give the same ``catalog.json`` from either backend, inserted in any
    order, and a saved snapshot re-saves to the same bytes. Sparse ids
    make a set's iteration order depend on its insertion order."""
    rng = random.Random(0)
    ids = [rng.randrange(1 << 40) for _ in range(60)]
    triples = [
        (rng.choice(ids), p, rng.choice(ids)) for p in range(100, 106) for _ in range(40)
    ]
    files = []
    for backend in BACKENDS:
        for order in (triples, triples[::-1]):
            store = TripleStore(backend=backend)
            store.add_triples(order)
            snap = tmp_path / f"{backend}-{len(files)}"
            save_snapshot(store, snap)
            files.append((snap / snapshot_mod.CATALOG_FILE).read_bytes())
            save_snapshot(load_snapshot(snap, backend=backend), tmp_path / "again")
            again = tmp_path / "again" / snapshot_mod.CATALOG_FILE
            assert again.read_bytes() == files[-1]
    assert len(set(files)) == 1


def test_catalog_optional(tmp_path):
    store = small_store()
    save_snapshot(store, tmp_path / "snap", include_catalog=False)
    assert load_snapshot_catalog(tmp_path / "snap") is None
    loaded = load_snapshot(tmp_path / "snap")
    assert_same_contents(store, loaded)


def test_query_results_identical_after_reload(tmp_path):
    from repro.core.engine import WireframeEngine
    from repro.query.parser import parse_sparql

    store = small_store()
    save_snapshot(store, tmp_path / "snap")
    query = parse_sparql("select ?a, ?b, ?c where { ?a knows ?b . ?b knows ?c }")
    expect = {
        tuple(store.dictionary.decode(v) for v in row)
        for row in WireframeEngine(store).evaluate(query).rows
    }
    for backend in BACKENDS:
        loaded = load_snapshot(tmp_path / "snap", backend=backend)
        got = {
            tuple(loaded.dictionary.decode(v) for v in row)
            for row in WireframeEngine(loaded).evaluate(query).rows
        }
        assert got == expect, backend


def test_resave_of_mmap_loaded_store(tmp_path):
    store = small_store("columnar")
    save_snapshot(store, tmp_path / "a")
    loaded = load_snapshot(tmp_path / "a", backend="columnar", use_mmap=True)
    save_snapshot(loaded, tmp_path / "b")
    again = load_snapshot(tmp_path / "b")
    assert_same_contents(store, again)


def test_empty_store_round_trip(tmp_path):
    store = TripleStore()
    store.freeze()
    save_snapshot(store, tmp_path / "snap")
    loaded = load_snapshot(tmp_path / "snap")
    assert loaded.num_triples == 0
    assert list(loaded.dictionary) == []


def test_unfrozen_store_saves_and_loads_unfrozen(tmp_path):
    store = TripleStore()
    store.add_term_triple("a", "p", "b")
    save_snapshot(store, tmp_path / "snap")
    loaded = load_snapshot(tmp_path / "snap", freeze=False)
    assert not loaded.frozen
    loaded.add_term_triple("new", "p", "b")
    assert loaded.num_triples == 2


# ----------------------------------------------------------------------
# Atomicity & overwrite semantics
# ----------------------------------------------------------------------


def test_killed_save_leaves_no_loadable_snapshot(tmp_path, monkeypatch):
    store = small_store()
    boom = RuntimeError("simulated crash mid-save")

    def exploding_write_segment(out, segment):
        raise boom

    monkeypatch.setattr(snapshot_mod, "write_segment", exploding_write_segment)
    with pytest.raises(RuntimeError):
        save_snapshot(store, tmp_path / "snap")
    assert not (tmp_path / "snap").exists()
    assert not any(tmp_path.iterdir())  # no .tmp litter either
    with pytest.raises(SnapshotError):
        load_snapshot(tmp_path / "snap")


def test_killed_overwrite_keeps_old_snapshot(tmp_path, monkeypatch):
    old = small_store()
    save_snapshot(old, tmp_path / "snap")

    bigger = TripleStore()
    bigger.add_term_triples([("x", "p", "y"), ("y", "p", "z")])
    monkeypatch.setattr(
        snapshot_mod, "write_segment",
        lambda out, segment: (_ for _ in ()).throw(RuntimeError("crash")),
    )
    with pytest.raises(RuntimeError):
        save_snapshot(bigger, tmp_path / "snap")
    monkeypatch.undo()
    loaded = load_snapshot(tmp_path / "snap")
    assert_same_contents(old, loaded)


def test_overwrite_replaces_and_no_overwrite_refuses(tmp_path):
    first = small_store()
    save_snapshot(first, tmp_path / "snap")
    second = TripleStore()
    second.add_term_triple("only", "p", "triple")
    second.freeze()
    with pytest.raises(SnapshotError, match="already exists"):
        save_snapshot(second, tmp_path / "snap", overwrite=False)
    save_snapshot(second, tmp_path / "snap")
    assert load_snapshot(tmp_path / "snap").num_triples == 1
    # the target is a symlink to exactly one live payload directory;
    # no .tmp/.old/.lnk litter and no orphaned payloads remain
    assert os.path.islink(tmp_path / "snap")
    current = os.readlink(tmp_path / "snap")
    leftovers = [
        p.name for p in tmp_path.iterdir() if p.name not in ("snap", current)
    ]
    assert leftovers == []


def test_overwrite_swap_is_a_symlink_flip(tmp_path):
    """Replacing a snapshot atomically retargets one symlink — the
    target path never stops resolving to a complete snapshot."""
    first = small_store()
    save_snapshot(first, tmp_path / "snap")
    before = os.readlink(tmp_path / "snap")
    second = TripleStore()
    second.add_term_triple("swapped", "p", "in")
    second.freeze()
    save_snapshot(second, tmp_path / "snap")
    after = os.readlink(tmp_path / "snap")
    assert before != after
    assert not (tmp_path / before).exists()  # old payload reclaimed
    assert load_snapshot(tmp_path / "snap").num_triples == 1


def test_legacy_plain_directory_target_still_replaceable(tmp_path):
    """A pre-symlink snapshot (plain directory) is converted on the
    first overwrite and loads correctly before and after."""
    store = small_store()
    save_snapshot(store, tmp_path / "snap")
    # degrade to a plain directory, as written by older code
    payload = os.readlink(tmp_path / "snap")
    os.remove(tmp_path / "snap")
    os.rename(tmp_path / payload, tmp_path / "snap")
    assert not os.path.islink(tmp_path / "snap")
    assert_same_contents(store, load_snapshot(tmp_path / "snap"))

    replacement = TripleStore()
    replacement.add_term_triple("new", "p", "content")
    replacement.freeze()
    save_snapshot(replacement, tmp_path / "snap")
    assert os.path.islink(tmp_path / "snap")
    assert load_snapshot(tmp_path / "snap").num_triples == 1


def test_save_detects_concurrent_mutation(tmp_path):
    store = TripleStore()
    store.add_term_triple("a", "p", "b")

    original = store.backend.export_segments

    def mutate_then_export():
        yield from original()
        store.add_term_triple("sneaky", "p", "b")

    store.backend.export_segments = mutate_then_export
    epoch_before = store.epoch
    with pytest.raises(SnapshotMutatedError, match="mutated during save") as exc:
        save_snapshot(store, tmp_path / "snap", include_catalog=False)
    assert not (tmp_path / "snap").exists()
    # The dedicated subtype reports both epochs so callers (the WAL
    # compactor) can retry exactly this abort and nothing else.
    assert exc.value.epoch_at_start == epoch_before
    assert exc.value.epoch_now == store.epoch
    assert exc.value.epoch_now > epoch_before
    assert isinstance(exc.value, SnapshotError)


def test_target_must_be_directory(tmp_path):
    (tmp_path / "file").write_text("not a dir")
    with pytest.raises(SnapshotError, match="not a directory"):
        save_snapshot(small_store(), tmp_path / "file")


# ----------------------------------------------------------------------
# Corruption detection & format gates
# ----------------------------------------------------------------------


def _segment_files(path):
    return sorted((path / "segments").iterdir())


def test_is_snapshot(tmp_path):
    assert not is_snapshot(tmp_path)
    save_snapshot(small_store(), tmp_path / "snap")
    assert is_snapshot(tmp_path / "snap")


def test_missing_manifest_is_clear_error(tmp_path):
    with pytest.raises(SnapshotError, match="not a snapshot"):
        load_snapshot(tmp_path)


def test_unparseable_manifest(tmp_path):
    save_snapshot(small_store(), tmp_path / "snap")
    (tmp_path / "snap" / MANIFEST_FILE).write_text("{nope")
    with pytest.raises(SnapshotError, match="unreadable snapshot manifest"):
        load_snapshot(tmp_path / "snap")


def test_newer_format_version_refused(tmp_path):
    save_snapshot(small_store(), tmp_path / "snap")
    manifest_path = tmp_path / "snap" / MANIFEST_FILE
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = FORMAT_VERSION + 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError, match="newer than this library"):
        load_snapshot(tmp_path / "snap")


@pytest.mark.parametrize("key,value", [("itemsize", 4), ("byteorder", "other")])
def test_foreign_byte_layout_refused(tmp_path, key, value):
    save_snapshot(small_store(), tmp_path / "snap")
    manifest_path = tmp_path / "snap" / MANIFEST_FILE
    manifest = json.loads(manifest_path.read_text())
    manifest[key] = value
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError):
        load_snapshot(tmp_path / "snap")


@pytest.mark.parametrize("use_mmap", [False, True])
def test_flipped_segment_byte_is_detected(tmp_path, use_mmap):
    save_snapshot(small_store("columnar"), tmp_path / "snap")
    victim = _segment_files(tmp_path / "snap")[0]
    faults.bit_flip(victim, -1)
    with pytest.raises(SnapshotError, match="checksum mismatch"):
        load_snapshot(tmp_path / "snap", backend="columnar", use_mmap=use_mmap)


def test_corrupt_terms_file_detected(tmp_path):
    save_snapshot(small_store(), tmp_path / "snap")
    victim = tmp_path / "snap" / TERMS_FILE
    faults.bit_flip(victim, 0)
    with pytest.raises(SnapshotError, match="checksum mismatch"):
        load_snapshot(tmp_path / "snap")


def test_truncated_segment_detected_even_without_verify(tmp_path):
    save_snapshot(small_store("columnar"), tmp_path / "snap")
    victim = _segment_files(tmp_path / "snap")[0]
    faults.truncate_tail(victim, 8)
    with pytest.raises(SnapshotError):
        load_snapshot(tmp_path / "snap", verify=False)


def test_missing_segment_file_detected(tmp_path):
    save_snapshot(small_store("columnar"), tmp_path / "snap")
    os.remove(_segment_files(tmp_path / "snap")[0])
    with pytest.raises(SnapshotError, match="missing"):
        load_snapshot(tmp_path / "snap")


def test_verify_false_skips_checksum_but_loads(tmp_path):
    store = small_store()
    save_snapshot(store, tmp_path / "snap")
    loaded = load_snapshot(tmp_path / "snap", verify=False)
    assert_same_contents(store, loaded)


def test_load_requires_empty_backend(tmp_path):
    save_snapshot(small_store(), tmp_path / "snap")
    occupied = TripleStore()
    occupied.add_term_triple("a", "p", "b")
    with pytest.raises(SnapshotError, match="empty backend"):
        load_snapshot(tmp_path / "snap", backend=occupied.backend)


def test_manifest_epoch_and_counts(tmp_path):
    store = small_store()
    save_snapshot(store, tmp_path / "snap")
    manifest = read_manifest(tmp_path / "snap")
    assert manifest["num_triples"] == store.num_triples
    assert manifest["num_terms"] == len(store.dictionary)
    assert manifest["epoch"] == store.epoch
    assert sum(e["pairs"] for e in manifest["predicates"]) == store.num_triples


# ----------------------------------------------------------------------
# Segment codec
# ----------------------------------------------------------------------


def test_segment_codec_round_trip():
    pairs = sorted({(1, 2), (1, 5), (3, 2), (7, 7), (-2, 40)})
    segment = Segment.from_pairs(pairs)
    blob = segment_to_bytes(segment)
    eager = read_segment(blob)
    assert list(eager.pairs()) == pairs
    view = segment_view(memoryview(blob))
    assert list(view.pairs()) == pairs
    assert [list(col) for col in view] == [list(col) for col in eager]


def test_segment_codec_rejects_garbage():
    with pytest.raises(SnapshotError, match="magic"):
        read_segment(b"NOTASEG!" + b"\0" * 48)
    with pytest.raises(SnapshotError, match="truncated"):
        read_segment(b"\0" * 8)
    segment = Segment.from_pairs([(1, 2)])
    blob = segment_to_bytes(segment)
    with pytest.raises(SnapshotError, match="does not match"):
        read_segment(blob + b"\0" * 8)
