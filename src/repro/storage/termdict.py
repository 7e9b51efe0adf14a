"""Offset-table term index + the memory-mapped lazy dictionary.

Snapshot format v2 writes the term dictionary as **two** files:

* ``terms.dict`` — unchanged from v1: every term in id order as
  ``<u32 little-endian byte length><UTF-8 bytes>`` records (see
  :meth:`repro.graph.dictionary.Dictionary.dump`);
* ``terms.idx`` — the offset table that makes ``terms.dict`` randomly
  addressable without parsing it::

      offset    contents
      ========  ====================================================
      0         magic ``b"REPROIDX"`` (8 bytes)
      8         ``u64`` little-endian term count ``n``
      16        ``n + 1`` native-endian ``u64`` byte offsets — entry
                ``i`` is where term ``i``'s record starts in
                ``terms.dict``; entry ``n`` is the total byte size
      16+8(n+1) ``n`` native-endian ``u64`` term ids sorted by their
                term's UTF-8 bytes (== code-point order), the
                binary-search index behind ``encode``/``lookup``

The 16-byte header keeps both ``u64`` arrays 8-byte aligned, so
:class:`MmapDictionary` serves them as ``memoryview('Q')`` casts
straight over the mapped file. Array byte order is native (the
snapshot manifest records it and the loader refuses a mismatch); the
header count is fixed little-endian so a foreign-endian index is still
recognized and rejected with a clear error.

:class:`MmapDictionary` implements the full
:class:`~repro.graph.dictionary.DictionaryView` read API over the two
mapped files **without materializing** ``_term_to_id`` or
``_id_to_term``: ``decode`` slices one record out of the mapped bytes,
``lookup`` / ``encode`` binary-search the sorted-id permutation, and iteration
streams records in id order. Warm-starting a snapshot therefore costs
O(1) in the vocabulary size — the OS pages term bytes in on first
touch.

Each record is read and validated once: ``decode`` memoizes every term
it has decoded and ``lookup`` every id it has found (never a miss, so
unknown terms cannot grow it). The mapped vocabulary is immutable, so
both memos are bounded by it — at most what an eager load pays up
front, paid only for the terms a workload touches.
"""

from __future__ import annotations

import operator
import struct
from array import array
from typing import BinaryIO, Iterable, Iterator

from repro.errors import DictionaryError, SnapshotError
from repro.graph.dictionary import RECORD_LEN

MAGIC = b"REPROIDX"

#: Index header: magic + u64 term count (little-endian).
_HEADER = struct.Struct("<8sQ")

HEADER_BYTES = _HEADER.size  # 16: keeps the u64 arrays 8-byte aligned

#: Element width of the offset and permutation arrays.
ITEMSIZE = array("Q").itemsize


def write_term_index(
    out: BinaryIO, dictionary, offsets: "list[int] | None" = None
) -> int:
    """Write the ``terms.idx`` offset table for ``dictionary``.

    ``dictionary`` is any :class:`~repro.graph.dictionary.DictionaryView`;
    a :class:`MmapDictionary` round-trips its mapped index verbatim
    (byte-stable re-save), while an eager dictionary gets its offsets
    and sorted-id permutation computed here. ``offsets`` may supply the
    ``n + 1`` record offsets already observed while writing
    ``terms.dict`` (see :meth:`Dictionary.dump`'s ``record_offsets``),
    which skips re-encoding every term just to re-derive them. Returns
    the number of terms indexed.
    """
    fast = getattr(dictionary, "dump_index", None)
    if fast is not None:
        return fast(out)
    terms = list(dictionary)
    n = len(terms)
    if offsets is not None:
        if len(offsets) != n + 1:
            raise ValueError(
                f"expected {n + 1} record offsets, got {len(offsets)}"
            )
        offset_column = array("Q", offsets)
    else:
        offset_column = array("Q", bytes(ITEMSIZE * (n + 1)))
        pos = 0
        for i, term in enumerate(terms):
            offset_column[i] = pos
            pos += RECORD_LEN.size + len(term.encode("utf-8"))
        offset_column[n] = pos
    # UTF-8 byte order equals code-point order, so sorting the Python
    # strings yields exactly the order the byte-wise binary search in
    # MmapDictionary.lookup() probes.
    perm = array("Q", sorted(range(n), key=terms.__getitem__))
    out.write(_HEADER.pack(MAGIC, n))
    out.write(offset_column.tobytes())
    out.write(perm.tobytes())
    return n


def parse_term_index(
    buf: memoryview, dict_bytes: int, where: str = "terms.idx"
) -> tuple[int, memoryview, memoryview]:
    """Validate a mapped ``terms.idx`` and return ``(n, offsets, perm)``.

    The structural gates are O(1): magic, size arithmetic, and the
    first/last offsets bracketing ``dict_bytes`` (the size of the
    ``terms.dict`` the index claims to address). Raises
    :class:`~repro.errors.SnapshotError` on any violation; per-record
    length consistency is verified lazily, on each decode.
    """
    size = len(buf)
    if size < HEADER_BYTES:
        raise SnapshotError(f"{where}: truncated term-index header")
    magic, n = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise SnapshotError(f"{where}: not a term index (bad magic)")
    if size != HEADER_BYTES + ITEMSIZE * (2 * n + 1):
        raise SnapshotError(
            f"{where}: index size {size} does not match its term count {n}"
        )
    split = HEADER_BYTES + ITEMSIZE * (n + 1)
    offsets = buf[HEADER_BYTES:split].cast("Q")
    perm = buf[split:].cast("Q")
    if offsets[0] != 0 or offsets[n] != dict_bytes:
        raise SnapshotError(
            f"{where}: offsets span [{offsets[0]}, {offsets[n]}] but the "
            f"dictionary file holds {dict_bytes} bytes"
        )
    return n, offsets, perm


class MmapDictionary:
    """Read-only term dictionary decoding straight out of mapped bytes.

    Implements the :class:`~repro.graph.dictionary.DictionaryView`
    protocol over a mapped ``terms.dict`` + ``terms.idx`` pair without
    ever building ``_term_to_id`` / ``_id_to_term``: the warm-start
    cost is O(1) in vocabulary size. Always :attr:`frozen` — ``encode``
    resolves existing terms via binary search over the sorted-id
    permutation and raises
    :class:`~repro.errors.DictionaryError` for unknown ones, exactly
    like a frozen eager dictionary.

    Lifetime: the instance holds the only strong references to its
    mapped buffers; decoded terms are owned ``str`` copies, so nothing
    served to callers pins the mapping. :meth:`close` drops the buffers
    (idempotent); any later decode raises
    :class:`~repro.errors.SnapshotError` cleanly. Deleting or replacing
    the snapshot directory on POSIX leaves the established mapping
    valid — the kernel keeps unlinked pages alive until unmapped.
    """

    __slots__ = (
        "_blob", "_idx", "_offsets", "_perm", "_count", "_where",
        "_terms", "_ids", "__weakref__",
    )

    def __init__(
        self,
        dict_buf: memoryview,
        idx_buf: memoryview,
        *,
        count: "int | None" = None,
        where: str = "terms.dict",
    ) -> None:
        n, offsets, perm = parse_term_index(idx_buf, len(dict_buf), f"{where}.idx")
        if count is not None and count != n:
            raise SnapshotError(
                f"{where}: manifest declares {count} terms, index holds {n}"
            )
        self._blob = dict_buf
        self._idx = idx_buf
        self._offsets = offsets
        self._perm = perm
        self._count = n
        self._where = where
        # Plain dicts of ints and strings rather than functools caches
        # over bound methods: those would be self-reference cycles,
        # leaving the instance — and the mapped term files it pins —
        # waiting on cyclic GC instead of being refcount-reclaimed the
        # moment the last reference drops.
        self._terms: dict[int, str] = {}  # id -> term, every one decoded
        self._ids: dict[str, int] = {}  # term -> id, every one found

    # -- record access --------------------------------------------------
    #
    # Every operation snapshots the buffer attributes into locals ONCE
    # and checks them for ``None`` before use: a ``close()`` racing a
    # decode on another thread then either raises the documented
    # :class:`SnapshotError` (the reader sampled after the drop) or
    # completes normally (its locals keep the mapped views alive) —
    # never an ``AttributeError``/``TypeError`` mid-operation. A memo is
    # sampled before the buffers and ``close`` replaces it after
    # dropping them, so a read racing ``close`` can only fill a memo
    # that no later call sees.

    def _require_open(self) -> "tuple[memoryview, memoryview, memoryview]":
        blob, offsets, perm = self._blob, self._offsets, self._perm
        if blob is None or offsets is None or perm is None:
            raise SnapshotError(f"{self._where}: mmap dictionary is closed")
        return blob, offsets, perm

    def _record_bytes(self, index: int) -> bytes:
        """Raw UTF-8 payload of record ``index`` (0-based, no negatives).

        The single validated record accessor behind decode *and* the
        binary-search probes: corrupt offset-table entries (positions
        outside the file, spans that disagree with the record's own
        length prefix) raise :class:`~repro.errors.SnapshotError` —
        never a mis-sliced payload, even with ``verify=False``.
        """
        blob, offsets, _ = self._require_open()
        start = offsets[index]
        end = offsets[index + 1]
        try:
            (length,) = RECORD_LEN.unpack_from(blob, start)
        except (struct.error, ValueError) as exc:
            raise SnapshotError(
                f"{self._where}: record {index} offset {start} is outside "
                f"the dictionary file"
            ) from exc
        if length != end - start - RECORD_LEN.size:
            raise SnapshotError(
                f"{self._where}: record {index} length {length} does not "
                f"match its offset-table span"
            )
        return bytes(blob[start + RECORD_LEN.size : end])

    def _read_term(self, index: int) -> str:
        """Decode the record at 0-based ``index`` (no cache)."""
        try:
            return self._record_bytes(index).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotError(
                f"{self._where}: corrupt record {index}: {exc}"
            ) from exc

    # -- DictionaryView: sizing / iteration -----------------------------

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[str]:
        """Stream every term in id order, decoding records lazily."""
        read = self._read_term
        return (read(i) for i in range(self._count))

    def __contains__(self, term: str) -> bool:
        return self.lookup(term) is not None

    # -- DictionaryView: freezing ---------------------------------------

    @property
    def frozen(self) -> bool:
        """Always ``True``: a mapped dictionary is immutable by nature."""
        return True

    def freeze(self) -> None:
        """No-op; the mapped dictionary is born frozen."""

    # -- DictionaryView: decode -----------------------------------------

    def decode(self, term_id: int) -> str:
        """Return the string for ``term_id``, read and validated once."""
        try:
            # operator.index applies exactly the eager dictionary's
            # list-subscript contract: ints (and __index__ types) only —
            # floats and strings fail here, not as a raw TypeError from
            # the offset-table subscript deeper in.
            index = operator.index(term_id)
        except TypeError as exc:
            raise DictionaryError(f"unknown term id {term_id!r}") from exc
        if index < 0:
            # Mirror the eager dictionary's list semantics, where
            # decode(-1) addresses the last term.
            index += self._count
        if not 0 <= index < self._count:
            raise DictionaryError(f"unknown term id {term_id!r}")
        terms = self._terms
        term = terms.get(index)
        if term is None:
            term = terms[index] = self._read_term(index)
        return term

    def decode_many(self, ids: Iterable[int]) -> list[str]:
        """Decode every id in ``ids``, in order; a decoded id is one
        memo probe."""
        terms, decode = self._terms, self.decode
        return [terms[i] if i in terms and type(i) is int else decode(i) for i in ids]

    # -- DictionaryView: encode-side ------------------------------------

    def lookup(self, term: str) -> "int | None":
        """The id of ``term``, or ``None`` — a binary search the first
        time ``term`` is found, a memo probe after that."""
        if not isinstance(term, str):
            return None
        ids = self._ids
        found = ids.get(term)
        if found is not None:
            return found
        _, _, perm = self._require_open()
        try:
            key = term.encode("utf-8")
        except UnicodeEncodeError:
            return None  # a lone surrogate: no UTF-8 record holds it
        count = self._count
        term_bytes = self._record_bytes
        lo, hi = 0, count
        while lo < hi:
            mid = (lo + hi) // 2
            tid = perm[mid]
            if tid >= count:
                # A corrupt permutation entry (checksum pass skipped via
                # verify=False) must surface as the storage layer's
                # corruption error, not an IndexError from the cast.
                raise SnapshotError(
                    f"{self._where}: corrupt term-index permutation entry "
                    f"{tid} (only {count} terms)"
                )
            candidate = term_bytes(tid)
            if candidate == key:
                ids[term] = tid
                return tid
            if candidate < key:
                lo = mid + 1
            else:
                hi = mid
        return None

    def encode(self, term: str) -> int:
        """Resolve an *existing* term to its id; new terms are refused
        exactly like a frozen eager dictionary."""
        term_id = self.lookup(term)
        if term_id is not None:
            return term_id
        if not isinstance(term, str):
            raise DictionaryError(
                f"terms must be strings, got {type(term).__name__}"
            )
        raise DictionaryError(f"dictionary is frozen; cannot intern {term!r}")

    def encode_many(self, terms: Iterable[str]) -> list[int]:
        """Resolve every term in ``terms``; raises on any unknown term."""
        encode = self.encode
        return [encode(t) for t in terms]

    # -- persistence ----------------------------------------------------

    def dump(self, out: BinaryIO) -> int:
        """Write the dictionary bytes verbatim (byte-stable re-save)."""
        blob, _, _ = self._require_open()
        out.write(blob)
        return self._count

    def dump_index(self, out: BinaryIO) -> int:
        """Write the offset-table index verbatim (byte-stable re-save)."""
        idx = self._idx
        if idx is None:
            raise SnapshotError(f"{self._where}: mmap dictionary is closed")
        out.write(idx)
        return self._count

    # -- lifetime -------------------------------------------------------

    def close(self) -> None:
        """Drop the mapped buffers; idempotent, safe in any GC order.

        References are released rather than force-unmapped: the OS
        mapping goes away when the last view does, so a racing reader
        holding a decoded batch can never hit freed pages. After close,
        every decode/lookup raises
        :class:`~repro.errors.SnapshotError`.
        """
        self._blob = None
        self._offsets = None
        self._perm = None
        self._idx = None
        self._terms = {}
        self._ids = {}

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has dropped the mapped buffers."""
        return self._blob is None

    def __repr__(self) -> str:
        state = "closed" if self.closed else "frozen, mmap"
        return f"MmapDictionary({self._count} terms, {state})"
