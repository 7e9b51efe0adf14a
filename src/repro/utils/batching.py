"""Fixed-size batching for streaming ingest paths.

N-Triples files load in :data:`BATCH_SIZE` chunks of term triples
(``add_term_triples``) instead of one file-length iterable, and dumps
write in chunks of the same size. The store's write lock is taken once
per write — so a multi-gigabyte parse never runs *under* the lock — and
peak memory is bounded by the batch, not the file.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, TypeVar

#: Default triples (or lines) per batch: large enough to amortize the
#: per-batch lock acquisition, small enough to keep ingest memory bounded.
BATCH_SIZE = 65536

_T = TypeVar("_T")


def batched(items: Iterable[_T], size: int = BATCH_SIZE) -> Iterator[list[_T]]:
    """Yield ``items`` in lists of at most ``size`` elements."""
    if size < 1:
        raise ValueError(f"batch size must be >= 1, got {size}")
    iterator = iter(items)
    while chunk := list(islice(iterator, size)):
        yield chunk
