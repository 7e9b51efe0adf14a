"""Opening a stored dataset with its statistics catalog.

The paper computes its statistics catalog *offline* and imports the
preprocessed dataset once per system. Here the prepared form is a
binary snapshot written by :func:`repro.storage.save_snapshot` (or
``repro save``): checksummed columnar segments, the term dictionary and
the catalog, which warm-start without re-parsing or re-sorting.
:func:`load_dataset` is the one read-only opener of that form, shared
by the CLI and :meth:`repro.service.QueryService.from_snapshot`.

(For interchange with *other* tools, use
:func:`repro.graph.ntriples.dump_ntriples_file`, which writes surface
strings instead.)
"""

from __future__ import annotations

from repro.graph.store import TripleStore
from repro.stats.catalog import Catalog
from repro.storage import load_snapshot, load_snapshot_catalog


def load_dataset(directory, backend=None) -> tuple[TripleStore, Catalog]:
    """Open the snapshot at ``directory`` frozen, with its catalog.

    ``backend`` selects the physical layout of the store (``None`` =
    ``REPRO_BACKEND``/default); a snapshot loads into any backend,
    memory-mapped onto columnar with the lazy term dictionary (see
    :func:`repro.storage.load_snapshot`). The stored catalog is used
    when the snapshot has one; otherwise it is built from the store.
    """
    store = load_snapshot(directory, backend=backend)
    catalog = load_snapshot_catalog(directory)
    if catalog is None:
        catalog = store.catalog()
    return store, catalog
