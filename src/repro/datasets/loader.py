"""Persisting datasets and catalogs to disk.

The paper computes its statistics catalog *offline* and imports the
preprocessed dataset once per system. This module provides the same
workflow for the stand-in: dump a generated graph (dictionary + integer
triples), write the catalog as JSON, and load all of it back without
regeneration.

Two on-disk forms are understood:

* the original **text dataset directory** (``terms.txt`` +
  ``triples.tsv`` + ``catalog.json``) written by :func:`save_dataset` —
  human-inspectable, id-identical on reload;
* a **binary snapshot** written by
  :func:`repro.storage.save_snapshot` — checksummed columnar segments
  that warm-start without re-parsing or re-sorting.

:func:`load_dataset` auto-detects which one a directory holds, so every
CLI command and service constructor accepts either interchangeably.
Text loads stream through the backends' ``add_many`` in fixed-size
batches (:data:`BATCH_SIZE`), so multi-GB ingest keeps bounded memory
and never holds a backend's write lock across a whole file parse.

(For interchange with *other* tools, use
:func:`repro.graph.ntriples.dump_ntriples_file`, which writes surface
strings instead.)
"""

from __future__ import annotations

import json
import os

from repro.graph.store import TripleStore
from repro.stats.catalog import Catalog, build_catalog
from repro.storage import is_snapshot, load_snapshot, load_snapshot_catalog
from repro.utils.batching import BATCH_SIZE, batched

TRIPLES_FILE = "triples.tsv"
DICTIONARY_FILE = "terms.txt"
CATALOG_FILE = "catalog.json"


def save_dataset(
    store: TripleStore, directory: str, catalog: Catalog | None = None
) -> None:
    """Write ``store``, its dictionary, and its catalog under ``directory``.

    The catalog is computed if not supplied — the offline preprocessing
    step. Terms containing newlines are rejected (they cannot round-trip
    through the line-oriented dictionary file). Triples are written in
    :data:`BATCH_SIZE` buffered blocks, never materialized wholesale.
    """
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, DICTIONARY_FILE), "w", encoding="utf-8") as f:
        for term in store.dictionary:
            if "\n" in term:
                raise ValueError(f"term {term!r} contains a newline")
            f.write(term + "\n")
    with open(os.path.join(directory, TRIPLES_FILE), "w", encoding="utf-8") as f:
        for chunk in batched(store.triples()):
            f.writelines(f"{s}\t{p}\t{o}\n" for s, p, o in chunk)
    if catalog is None:
        catalog = build_catalog(store)
    with open(os.path.join(directory, CATALOG_FILE), "w", encoding="utf-8") as f:
        json.dump(catalog.to_dict(), f)


def load_dataset(
    directory: str,
    freeze: bool = True,
    backend: str | None = None,
    batch_size: int = BATCH_SIZE,
    lazy_terms: bool | None = None,
) -> tuple[TripleStore, Catalog]:
    """Load a saved (store, catalog) pair with identical term ids.

    ``directory`` may be a text dataset directory *or* a binary
    snapshot (see the module docstring); the distinction is detected
    from the files present. ``backend`` selects the physical layout of
    the reloaded store (``None`` = ``REPRO_BACKEND``/default); both
    on-disk formats are backend-independent, so any saved dataset loads
    into any backend. ``lazy_terms`` (snapshots only) follows
    :func:`repro.storage.load_snapshot`: ``None`` defaults
    memory-mapped columnar opens of a format-v2 snapshot to the lazy
    mmap dictionary, ``False`` forces the eager in-memory dictionary,
    and ``True`` insists on the lazy one (v1 snapshots raise).
    """
    if is_snapshot(directory):
        store = load_snapshot(
            directory, backend=backend, freeze=freeze, lazy_terms=lazy_terms
        )
        catalog = load_snapshot_catalog(directory)
        if catalog is None:
            catalog = store.catalog()
        return store, catalog

    store = TripleStore(backend=backend)
    with open(os.path.join(directory, DICTIONARY_FILE), "r", encoding="utf-8") as f:
        for line in f:
            store.dictionary.encode(line.rstrip("\n"))
    with open(os.path.join(directory, TRIPLES_FILE), "r", encoding="utf-8") as f:
        rows = (tuple(map(int, line.split("\t"))) for line in f)
        for chunk in batched(rows, batch_size):
            store.add_triples(chunk)
    with open(os.path.join(directory, CATALOG_FILE), "r", encoding="utf-8") as f:
        catalog = Catalog.from_dict(json.load(f))
    if freeze:
        store.freeze()
    return store, catalog
