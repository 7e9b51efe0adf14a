"""Unit tests for the terms.idx offset table and MmapDictionary."""

import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DictionaryError, SnapshotError
from repro.graph.dictionary import Dictionary, DictionaryView
from repro.storage import MmapDictionary, parse_term_index, write_term_index
from repro.storage.termdict import HEADER_BYTES, ITEMSIZE, MAGIC

TRICKY_TERMS = [
    "alice",
    "",  # the empty term is a valid record
    "with spaces and\ttabs",
    'quotes "and" \\backslashes\\',
    "newline\nand\rcarriage",
    "ünïcödé-✓-\U0001f600",
    "a" * 5000,
    "\x00embedded-nul",
]


def build(terms):
    """(eager Dictionary, MmapDictionary) over the same term list."""
    eager = Dictionary()
    for term in terms:
        eager.encode(term)
    dict_buf = io.BytesIO()
    eager.dump(dict_buf)
    idx_buf = io.BytesIO()
    assert write_term_index(idx_buf, eager) == len(terms)
    lazy = MmapDictionary(
        memoryview(dict_buf.getvalue()), memoryview(idx_buf.getvalue())
    )
    return eager, lazy


# ----------------------------------------------------------------------
# Read-API parity with the eager dictionary
# ----------------------------------------------------------------------


def test_full_read_parity_on_tricky_terms():
    eager, lazy = build(TRICKY_TERMS)
    assert isinstance(lazy, DictionaryView)
    assert len(lazy) == len(eager)
    assert list(lazy) == list(eager)
    assert lazy.frozen
    lazy.freeze()  # no-op, must not raise
    ids = list(range(len(eager)))
    assert lazy.decode_many(ids) == eager.decode_many(ids)
    for term in TRICKY_TERMS:
        assert lazy.lookup(term) == eager.lookup(term)
        assert lazy.encode(term) == eager.encode(term)
        assert term in lazy
    assert lazy.encode_many(TRICKY_TERMS) == eager.encode_many(TRICKY_TERMS)
    assert "never interned" not in lazy
    assert lazy.lookup("never interned") is None
    assert lazy.lookup(42) is None  # non-str lookups miss, like dict.get


def test_negative_ids_mirror_eager_list_semantics():
    eager, lazy = build(TRICKY_TERMS)
    assert lazy.decode(-1) == eager.decode(-1)
    assert lazy.decode(-len(TRICKY_TERMS)) == eager.decode(-len(TRICKY_TERMS))
    with pytest.raises(DictionaryError):
        lazy.decode(-len(TRICKY_TERMS) - 1)


def test_unknown_ids_and_terms_raise():
    _, lazy = build(["a", "b"])
    with pytest.raises(DictionaryError, match="unknown term id"):
        lazy.decode(2)
    with pytest.raises(DictionaryError, match="unknown term id"):
        lazy.decode("zero")
    with pytest.raises(DictionaryError, match="unknown term id"):
        lazy.decode(1.5)  # same contract as the eager list subscript
    with pytest.raises(DictionaryError, match="frozen"):
        lazy.encode("new-term")
    with pytest.raises(DictionaryError, match="must be strings"):
        lazy.encode(3.5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(max_size=40), unique=True, max_size=40))
def test_property_parity_on_arbitrary_vocabularies(terms):
    _, lazy = build(terms)
    assert list(lazy) == terms
    assert lazy.decode_many(range(len(terms))) == terms
    for i, term in enumerate(terms):
        assert lazy.lookup(term) == i


def test_lru_caches_hot_decodes():
    _, lazy = build(TRICKY_TERMS)
    first = lazy.decode(0)
    assert lazy.decode(0) is first  # same object: served from the LRU


def test_lookup_memoizes_found_ids_only():
    _, lazy = build(TRICKY_TERMS)
    for i in range(1000):
        assert lazy.lookup(f"unknown-{i}") is None
    assert lazy._ids == {}  # unknown terms never grow the memo
    assert lazy.lookup("alice") == 0
    assert lazy._ids == {"alice": 0}


def test_lone_surrogate_is_not_in_the_dictionary():
    eager, lazy = build(TRICKY_TERMS)
    assert eager.lookup("\ud800") is None
    assert lazy.lookup("\ud800") is None
    assert "\ud800" not in lazy
    with pytest.raises(DictionaryError, match="frozen"):
        lazy.encode("\ud800")


def test_memoized_terms_and_ids_fail_cleanly_after_close():
    _, lazy = build(TRICKY_TERMS)
    assert lazy.decode(0) == lazy.decode_many([0])[0] == "alice"
    assert lazy.lookup("alice") == 0
    lazy.close()
    with pytest.raises(SnapshotError, match="closed"):
        lazy.decode(0)
    with pytest.raises(SnapshotError, match="closed"):
        lazy.decode_many([0])
    with pytest.raises(SnapshotError, match="closed"):
        lazy.lookup("alice")


def test_concurrent_decodes_match_the_eager_dictionary():
    import sys
    import threading

    terms = [f"term-{i}" for i in range(2000)] + TRICKY_TERMS
    eager, lazy = build(terms)
    ids = list(range(len(terms)))
    results, errors = [], []

    def decode_all(offset):
        try:
            results.append(lazy.decode_many(ids[offset:] + ids[:offset]))
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=decode_all, args=(k * 250,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the memo's first fills
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    expected = eager.decode_many(ids)
    for k, got in enumerate(sorted(results, key=lambda r: terms.index(r[0]))):
        assert got == expected[k * 250:] + expected[: k * 250]
    assert lazy.decode_many(ids) == expected


def test_no_reference_cycle_instances_are_refcount_reclaimable():
    """Dropping the last reference must free the dictionary (and the
    mapped buffers it pins) without waiting for cyclic GC — the
    discipline the storage layer's other mmap holders follow."""
    import gc
    import weakref

    _, lazy = build(TRICKY_TERMS)
    lazy.decode(0)
    ref = weakref.ref(lazy)
    gc.disable()
    try:
        del lazy
        assert ref() is None  # reclaimed by refcount alone, no gc pass
    finally:
        gc.enable()


def test_empty_dictionary():
    _, lazy = build([])
    assert len(lazy) == 0
    assert list(lazy) == []
    assert lazy.lookup("x") is None
    with pytest.raises(DictionaryError):
        lazy.decode(0)


# ----------------------------------------------------------------------
# Byte-stable persistence
# ----------------------------------------------------------------------


def test_dump_and_dump_index_are_byte_stable():
    eager, lazy = build(TRICKY_TERMS)
    dict_buf, idx_buf = io.BytesIO(), io.BytesIO()
    eager.dump(dict_buf)
    write_term_index(idx_buf, eager)
    redump, reidx = io.BytesIO(), io.BytesIO()
    assert lazy.dump(redump) == len(TRICKY_TERMS)
    assert lazy.dump_index(reidx) == len(TRICKY_TERMS)
    assert redump.getvalue() == dict_buf.getvalue()
    assert reidx.getvalue() == idx_buf.getvalue()


# ----------------------------------------------------------------------
# Structural validation & corruption
# ----------------------------------------------------------------------


def _bufs(terms):
    eager = Dictionary()
    for t in terms:
        eager.encode(t)
    dict_buf, idx_buf = io.BytesIO(), io.BytesIO()
    eager.dump(dict_buf)
    write_term_index(idx_buf, eager)
    return bytearray(dict_buf.getvalue()), bytearray(idx_buf.getvalue())


def test_bad_magic_rejected():
    dict_raw, idx_raw = _bufs(["a", "b"])
    idx_raw[:8] = b"NOTANIDX"
    with pytest.raises(SnapshotError, match="bad magic"):
        MmapDictionary(memoryview(bytes(dict_raw)), memoryview(bytes(idx_raw)))


def test_truncated_index_rejected():
    dict_raw, idx_raw = _bufs(["a", "b"])
    with pytest.raises(SnapshotError, match="truncated"):
        parse_term_index(memoryview(bytes(idx_raw[:8])), len(dict_raw))
    with pytest.raises(SnapshotError, match="does not match"):
        MmapDictionary(
            memoryview(bytes(dict_raw)), memoryview(bytes(idx_raw[:-8]))
        )


def test_manifest_count_mismatch_rejected():
    dict_raw, idx_raw = _bufs(["a", "b"])
    with pytest.raises(SnapshotError, match="declares 3 terms"):
        MmapDictionary(
            memoryview(bytes(dict_raw)), memoryview(bytes(idx_raw)), count=3
        )


def test_offsets_must_span_the_dictionary_file():
    dict_raw, idx_raw = _bufs(["a", "b"])
    with pytest.raises(SnapshotError, match="offsets span"):
        MmapDictionary(
            memoryview(bytes(dict_raw + b"trailing")),
            memoryview(bytes(idx_raw)),
        )


def test_corrupt_record_length_raises_not_garbage():
    dict_raw, idx_raw = _bufs(["aaaa", "bbbb"])
    # Shrink record 0's length prefix: the offset-table span no longer
    # matches, which the lazy decode must catch rather than mis-slice.
    struct.pack_into("<I", dict_raw, 0, 2)
    lazy = MmapDictionary(
        memoryview(bytes(dict_raw)), memoryview(bytes(idx_raw))
    )
    with pytest.raises(SnapshotError, match="does not match its offset"):
        lazy.decode(0)


def test_corrupt_utf8_raises_not_garbage():
    dict_raw, idx_raw = _bufs(["aaaa"])
    dict_raw[4:8] = b"\xff\xfe\xfd\xfc"
    lazy = MmapDictionary(
        memoryview(bytes(dict_raw)), memoryview(bytes(idx_raw))
    )
    with pytest.raises(SnapshotError, match="corrupt record"):
        lazy.decode(0)


def test_corrupt_permutation_entry_raises_not_indexerror():
    dict_raw, idx_raw = _bufs(["aaaa", "bbbb"])
    # Overwrite the first permutation entry (after header + 3 offsets)
    # with an out-of-range id: every structural gate still passes, so
    # only the lookup-time check stands between this and an IndexError.
    struct.pack_into("<Q", idx_raw, HEADER_BYTES + 3 * ITEMSIZE, 999999)
    lazy = MmapDictionary(
        memoryview(bytes(dict_raw)), memoryview(bytes(idx_raw))
    )
    with pytest.raises(SnapshotError, match="corrupt term-index permutation"):
        lazy.lookup("aaaa")


def test_corrupt_offset_beyond_file_raises_not_structerror():
    dict_raw, idx_raw = _bufs(["aaaa", "bbbb"])
    # Point record 1's start far past the dictionary file; the first
    # and last offsets still bracket correctly, so the O(1) open gates
    # pass and only the per-decode check can catch it.
    struct.pack_into("<Q", idx_raw, HEADER_BYTES + ITEMSIZE, 5000)
    lazy = MmapDictionary(
        memoryview(bytes(dict_raw)), memoryview(bytes(idx_raw))
    )
    with pytest.raises(SnapshotError, match="outside the dictionary file"):
        lazy.decode(1)


def test_header_layout_constants():
    # The documented layout: 16-byte header, 8-byte array elements.
    assert HEADER_BYTES == 16
    assert ITEMSIZE == 8
    assert len(MAGIC) == 8
