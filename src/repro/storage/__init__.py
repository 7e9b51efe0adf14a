"""Durable snapshot & segment persistence for triple stores.

The persistence subsystem behind ``repro save`` / ``--snapshot`` and
``repro serve --wal``:

* :func:`save_snapshot` — atomically serialize a store (term
  dictionary, per-predicate columnar segments, optional statistics
  catalog) into a checksummed snapshot directory;
* :func:`load_snapshot` — reconstruct the store either eagerly (any
  backend) or **zero-copy via mmap** into the columnar backend, so a
  warm start skips parsing, dictionary encoding, and sorting entirely;
  format v2 snapshots additionally default memory-mapped opens to a
  lazy :class:`MmapDictionary` (``lazy_terms=``) that decodes terms
  straight out of the mapped ``terms.dict``/``terms.idx`` pair — the
  open cost is O(1) in vocabulary size;
* :func:`is_snapshot` / :func:`read_manifest` /
  :func:`load_snapshot_catalog` — introspection helpers; the stored
  catalog is what :func:`repro.datasets.loader.load_dataset` (the CLI's
  and ``QueryService.from_snapshot``'s opener) pairs with the store;
* the **crash-safe write path**: :func:`open_store` loads a snapshot,
  replays its paired write-ahead log (:mod:`repro.storage.wal`), and
  attaches the journaling hook so every acknowledged batch survives
  ``kill -9``; :func:`compact` folds the log into the next snapshot
  generation off the write path; :func:`store_fingerprint` is the
  content-equality oracle the recovery guarantees are stated in;
* :class:`DurableStore` — one journaled store's lifecycle (seal,
  fold-in, background compactor, degraded-mode probe), the object a
  ``QueryService.from_snapshot(..., wal=True)`` keeps as ``durable``;
* **generation-change notification**: :func:`generation_token` /
  :class:`SnapshotWatcher` turn the atomic symlink install into a
  one-syscall change detector, which is how the prefork dispatcher
  (:mod:`repro.server.prefork`) notices a compaction installed a new
  generation and triggers the live worker handoff.

Format details live in :mod:`repro.storage.snapshot` (directory layout,
atomicity, corruption detection), :mod:`repro.storage.segments` (the
binary segment encoding), and :mod:`repro.storage.wal` (the log record
framing and torn-tail semantics).
"""

from repro.errors import SnapshotError, WalAppendError, WalError
from repro.storage.generations import (
    SnapshotWatcher,
    clear_quarantine,
    generation_token,
    has_quarantine,
    is_quarantined,
    quarantine,
    quarantine_path,
    quarantined,
)
from repro.storage.durable import DurableStore
from repro.storage.recovery import (
    close_store,
    compact,
    open_store,
    replay_wal,
    snapshot_generation,
    store_fingerprint,
    wal_inspect,
    wal_path_for,
)
from repro.storage.wal import (
    WalRecord,
    WalScan,
    WalWriteHook,
    WriteAheadLog,
    scan_wal,
)
from repro.storage.segments import (
    read_segment,
    segment_bytes,
    segment_to_bytes,
    segment_view,
    write_segment,
)
from repro.storage.snapshot import (
    CATALOG_FILE,
    FORMAT_VERSION,
    MANIFEST_FILE,
    SEGMENTS_DIR,
    TERMS_FILE,
    TERMS_IDX_FILE,
    is_snapshot,
    load_snapshot,
    load_snapshot_catalog,
    read_manifest,
    save_snapshot,
)
from repro.storage.termdict import (
    MmapDictionary,
    parse_term_index,
    write_term_index,
)

__all__ = [
    "SnapshotError",
    "WalAppendError",
    "WalError",
    "WalRecord",
    "WalScan",
    "WalWriteHook",
    "WriteAheadLog",
    "scan_wal",
    "DurableStore",
    "open_store",
    "close_store",
    "replay_wal",
    "compact",
    "snapshot_generation",
    "generation_token",
    "SnapshotWatcher",
    "quarantine_path",
    "quarantine",
    "is_quarantined",
    "quarantined",
    "clear_quarantine",
    "has_quarantine",
    "store_fingerprint",
    "wal_inspect",
    "wal_path_for",
    "FORMAT_VERSION",
    "MANIFEST_FILE",
    "TERMS_FILE",
    "TERMS_IDX_FILE",
    "CATALOG_FILE",
    "SEGMENTS_DIR",
    "MmapDictionary",
    "write_term_index",
    "parse_term_index",
    "save_snapshot",
    "load_snapshot",
    "load_snapshot_catalog",
    "is_snapshot",
    "read_manifest",
    "write_segment",
    "read_segment",
    "segment_view",
    "segment_bytes",
    "segment_to_bytes",
]
