"""Bidirectional string dictionary (term interning).

RDF terms (IRIs, literals, blank-node labels) are interned to dense
integer ids at load time; every engine in the library operates purely on
integers. This mirrors the string-dictionary + composite-index layout
the paper uses for its PostgreSQL/MonetDB imports ("indexes on the
string dictionary, and six composite indexes over the permutations of
subject, predicate, and object").

Ids are assigned densely from 0 in first-seen order, which makes them
directly usable as array indexes in the columnar baseline.
"""

from __future__ import annotations

import struct
from itertools import accumulate, chain, repeat
from operator import add
from typing import BinaryIO, Iterable, Iterator, Protocol, runtime_checkable

from repro.errors import DictionaryError

#: Dictionary record framing: each term is stored as ``<u32 little-
#: endian byte length><UTF-8 bytes>``. Shared with the offset-table
#: index (:mod:`repro.storage.termdict`), which validates record
#: lengths against it on every lazy decode.
RECORD_LEN = struct.Struct("<I")

_LEN = RECORD_LEN


@runtime_checkable
class DictionaryView(Protocol):
    """The read-side dictionary API every consumer codes against.

    :class:`~repro.graph.store.TripleStore`, the engines, the
    N-Triples dump, and :class:`~repro.service.QueryService` only ever
    *read* terms once a dataset is loaded, so they accept any object
    with this surface — the eager in-memory :class:`Dictionary` or the
    zero-materialization :class:`~repro.storage.termdict.MmapDictionary`
    that decodes straight out of a mapped snapshot file. ``encode`` on
    a view of an immutable dictionary resolves *existing* terms and
    raises :class:`~repro.errors.DictionaryError` for new ones.
    """

    def __len__(self) -> int:
        """Number of interned terms."""

    def __iter__(self) -> Iterator[str]:
        """Iterate every term in id order."""

    def __contains__(self, term: str) -> bool:
        """Whether ``term`` was interned."""

    @property
    def frozen(self) -> bool:
        """Whether insertions are disallowed."""

    def freeze(self) -> None:
        """Disallow further insertions (decode/lookup keep working)."""

    def encode(self, term: str) -> int:
        """The id of ``term``; frozen views refuse new terms."""

    def encode_many(self, terms: Iterable[str]) -> list[int]:
        """Encode every term in ``terms``, in order."""

    def lookup(self, term: str) -> "int | None":
        """The id of ``term``, or ``None`` if never interned."""

    def decode(self, term_id: int) -> str:
        """The string for ``term_id``."""

    def decode_many(self, ids: Iterable[int]) -> list[str]:
        """Decode every id in ``ids``, in order (the batched path)."""

    def dump(self, out: BinaryIO) -> int:
        """Write the byte-stable binary form; returns the term count."""


class Dictionary:
    """Intern strings to dense integer ids and back.

    >>> d = Dictionary()
    >>> d.encode("alice")
    0
    >>> d.encode("bob"), d.encode("alice")
    (1, 0)
    >>> d.decode(1)
    'bob'
    """

    __slots__ = ("_term_to_id", "_id_to_term", "_frozen")

    def __init__(self) -> None:
        self._term_to_id: dict[str, int] = {}
        self._id_to_term: list[str] = []
        self._frozen = False

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __contains__(self, term: str) -> bool:
        return term in self._term_to_id

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_term)

    def freeze(self) -> None:
        """Disallow further insertions (decode/lookup still work).

        A frozen dictionary models the paper's *offline* preprocessing:
        statistics and benchmarks run against an immutable dataset.
        """
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def encode(self, term: str) -> int:
        """Return the id for ``term``, interning it if new."""
        existing = self._term_to_id.get(term)
        if existing is not None:
            return existing
        if self._frozen:
            raise DictionaryError(f"dictionary is frozen; cannot intern {term!r}")
        if not isinstance(term, str):
            raise DictionaryError(f"terms must be strings, got {type(term).__name__}")
        new_id = len(self._id_to_term)
        self._term_to_id[term] = new_id
        self._id_to_term.append(term)
        return new_id

    def encode_many(self, terms: Iterable[str]) -> list[int]:
        """Intern every term in ``terms``; returns their ids in order."""
        return [self.encode(t) for t in terms]

    def lookup(self, term: str) -> int | None:
        """Return the id for ``term`` or ``None`` if it was never interned."""
        return self._term_to_id.get(term)

    def decode(self, term_id: int) -> str:
        """Return the string for ``term_id``."""
        try:
            return self._id_to_term[term_id]
        except (IndexError, TypeError) as exc:
            raise DictionaryError(f"unknown term id {term_id!r}") from exc

    def decode_many(self, ids: Iterable[int]) -> list[str]:
        """Decode every id in ``ids``, in order — one C-level map call.

        The batched decode path shared by the N-Triples dump and result
        materialization; the mmap dictionary implements the same method
        over its offset table, so callers never decode row-by-row.
        """
        try:
            return list(map(self._id_to_term.__getitem__, ids))
        except (IndexError, TypeError) as exc:
            raise DictionaryError(f"unknown term id in batch: {exc}") from exc

    # ------------------------------------------------------------------
    # Stable binary persistence (the snapshot layer's term file)
    # ------------------------------------------------------------------
    #
    # Terms are written in id order as ``<u32 little-endian byte
    # length><UTF-8 bytes>`` records, so ids are implicit, arbitrary
    # strings (newlines, any unicode) round-trip losslessly, and the
    # format is byte-stable: the same dictionary always produces the
    # same bytes, which the snapshot manifest checksums.

    def dump(
        self, out: BinaryIO, record_offsets: "list[int] | None" = None
    ) -> int:
        """Write every term in id order; returns the number written.

        The records are joined into one buffer and written by one
        ``write`` call. ``record_offsets``, when supplied, receives the
        byte offset of every record start plus a final total-bytes entry
        (``n + 1`` values) — the snapshot writer feeds them straight
        into the format-v2 offset table so each term is UTF-8-encoded
        exactly once per save.
        """
        datas = [term.encode("utf-8") for term in self._id_to_term]
        lengths = list(map(len, datas))
        out.write(b"".join(chain.from_iterable(zip(map(_LEN.pack, lengths), datas))))
        if record_offsets is not None:
            record_offsets.extend(
                accumulate(map(add, lengths, repeat(_LEN.size)), initial=0)
            )
        return len(datas)

    @classmethod
    def load(cls, src: BinaryIO, count: int | None = None) -> "Dictionary":
        """Read a :meth:`dump`-format stream back into a new dictionary.

        ``count`` (when known, e.g. from a snapshot manifest) is
        verified against the number of records actually present; any
        truncated or trailing bytes raise :class:`DictionaryError`.
        """
        blob = src.read()
        self = cls()
        terms = self._id_to_term
        term_to_id = self._term_to_id
        pos = 0
        end = len(blob)
        unpack = _LEN.unpack_from
        while pos < end:
            if pos + _LEN.size > end:
                raise DictionaryError("truncated dictionary record header")
            (length,) = unpack(blob, pos)
            pos += _LEN.size
            if pos + length > end:
                raise DictionaryError("truncated dictionary record body")
            try:
                term = blob[pos : pos + length].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DictionaryError(f"corrupt dictionary record: {exc}") from exc
            pos += length
            term_to_id[term] = len(terms)
            terms.append(term)
        if len(term_to_id) != len(terms):
            raise DictionaryError("duplicate terms in dictionary stream")
        if count is not None and count != len(terms):
            raise DictionaryError(
                f"expected {count} dictionary terms, read {len(terms)}"
            )
        return self

    def __repr__(self) -> str:
        state = "frozen" if self._frozen else "mutable"
        return f"Dictionary({len(self)} terms, {state})"
