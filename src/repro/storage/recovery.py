"""Crash recovery: replay a write-ahead log over its snapshot.

The read side of :mod:`repro.storage.wal`. :func:`open_store` is the
crash-safe way to open a mutable store: it loads the snapshot (or
starts empty), replays every committed WAL record over it, and attaches
a :class:`~repro.storage.wal.WalWriteHook` so subsequent batches
journal before they mutate. Replay is **idempotent** — records are set
operations (add/remove with RDF set semantics) and term re-interning is
verified against the dictionary — so replaying a log twice, or
replaying records that a snapshot generation already folded in, yields
the identical store fingerprint.

:func:`compact` folds the log into a new snapshot generation *off the
write path*: the snapshot is written without blocking writers (retrying
if a mutation races it, final attempt under the write lock), installed
via the existing atomic symlink flip, and only then is the log
truncated — under the write lock — through the sequence horizon the
snapshot is known to contain. A crash at any point leaves either the
old generation plus the full log, or the new generation plus the
(possibly still longer) log; replay idempotency makes both equivalent.
"""

from __future__ import annotations

import hashlib
import os

from repro.errors import (
    SnapshotError,
    SnapshotMutatedError,
    StoreError,
    WalError,
)
from repro.graph.dictionary import Dictionary
from repro.graph.store import TripleStore
from repro.storage.snapshot import (
    is_snapshot,
    load_snapshot,
    load_snapshot_catalog,
    read_manifest,
    save_snapshot,
)
from repro.storage.wal import WalRecord, WalWriteHook, WriteAheadLog, scan_wal

#: How often a snapshot write is retried against racing writers before
#: the final attempt runs under the write lock (stop-the-world).
_COMPACT_RETRIES = 3


def wal_path_for(path: "str | os.PathLike") -> str:
    """The log file paired with a snapshot directory (a ``.wal`` sibling).

    A sibling rather than a member: the snapshot directory is replaced
    wholesale by every atomic install, and the log must survive exactly
    those installs.
    """
    return os.fspath(path) + ".wal"


def store_fingerprint(store: TripleStore) -> str:
    """Content hash of a store: dictionary (id order) + sorted triples.

    Two stores with equal fingerprints hold the same terms at the same
    ids and the same triple set, regardless of backend, staging state,
    or mutation history — the equality oracle all recovery tests (and
    the fault-injection harness) reduce to.
    """
    sha = hashlib.sha256()
    dictionary = store.dictionary
    n = len(dictionary)
    sha.update(n.to_bytes(8, "little"))
    for term in dictionary.decode_many(range(n)):
        data = term.encode("utf-8")
        sha.update(len(data).to_bytes(4, "little"))
        sha.update(data)
    triples = sorted(store.triples())
    sha.update(len(triples).to_bytes(8, "little"))
    for s, p, o in triples:
        sha.update(s.to_bytes(8, "little", signed=True))
        sha.update(p.to_bytes(8, "little", signed=True))
        sha.update(o.to_bytes(8, "little", signed=True))
    return sha.hexdigest()


def _replay_record(store: TripleStore, record: WalRecord, where: str) -> None:
    """Apply one record; idempotent, and loud about contradictions."""
    dictionary = store.dictionary
    n = len(dictionary)
    base = record.term_base
    if base > n:
        raise WalError(
            f"{where}: record seq {record.seq} interns terms from id "
            f"{base} but the store only has {n} — a log replayed over "
            f"the wrong (or an older) snapshot"
        )
    if record.terms:
        # The prefix below the current count must already read back
        # identically (a replayed record re-interning is the idempotent
        # case); the rest is interned now, landing at the same ids.
        overlap = min(n - base, len(record.terms))
        if overlap:
            existing = dictionary.decode_many(range(base, base + overlap))
            if list(record.terms[:overlap]) != existing:
                raise WalError(
                    f"{where}: record seq {record.seq} disagrees with "
                    f"the store dictionary at ids {base}..{base + overlap}"
                )
        for term in record.terms[overlap:]:
            dictionary.encode(term)
    store.apply_unjournaled(record.adds, record.removes)


def replay_wal(
    store: TripleStore, wal_path: "str | os.PathLike"
) -> "tuple[int, int]":
    """Replay every committed record of ``wal_path`` onto ``store``.

    Returns ``(records_applied, last_seq)``. The store must be
    unfrozen with an eager (internable) dictionary. Applying goes
    through :meth:`TripleStore.apply_unjournaled` so an attached write
    log is never re-journaled with its own replay, while a seeded
    catalog memo still sees every replayed change.
    """
    where = os.fspath(wal_path)
    scan = scan_wal(where)
    for record in scan.records:
        _replay_record(store, record, where)
    return len(scan.records), scan.committed_seq


def open_store(
    path: "str | os.PathLike",
    *,
    backend: "str | None" = None,
    fsync: str = "batch",
    create: bool = True,
    verify: bool = True,
) -> TripleStore:
    """Open a crash-safe mutable store at ``path`` (snapshot + WAL).

    Loads the snapshot if one exists (eager dictionary, unfrozen —
    the write path must keep interning), otherwise starts empty
    (``create=False`` raises unless a paired WAL already exists —
    a WAL-only store is durable state too), replays the paired WAL, and
    attaches the journaling hook. Every acknowledged mutation from
    here on survives ``kill -9`` under the default per-batch ``fsync``
    policy.

    A catalog stored beside the snapshot seeds the store's catalog memo
    *before* the replay, so replayed batches are patched into it like
    any other write and the first query after a crash pays no
    statistics rebuild.
    """
    target = os.fspath(path)
    if is_snapshot(target):
        store = load_snapshot(
            target,
            backend=backend,
            lazy_terms=False,
            verify=verify,
            freeze=False,
        )
        catalog = load_snapshot_catalog(target, verify=verify)
        if catalog is not None:
            store.seed_catalog(catalog)
    elif os.path.exists(target) and os.listdir(target):
        raise SnapshotError(
            f"{target!r} exists but is not a snapshot directory"
        )
    elif not create and not os.path.exists(wal_path_for(target)):
        # A paired journal with no snapshot generation yet is still a
        # durable store (a WAL-only store) — only refuse when neither
        # form of persistent state exists.
        raise SnapshotError(
            f"no snapshot or write-ahead log at {target!r} (create=False)"
        )
    else:
        store = TripleStore(dictionary=Dictionary(), backend=backend)
    wal_file = wal_path_for(target)
    replay_wal(store, wal_file)
    wal = WriteAheadLog.open(wal_file, fsync=fsync)
    store.attach_write_log(
        WalWriteHook(wal, store.dictionary, snapshot_path=target)
    )
    return store


def close_store(store: TripleStore) -> None:
    """Detach and close a store's write log (flushes + fsyncs)."""
    hook = store.detach_write_log()
    if hook is not None:
        hook.wal.close()


def snapshot_generation(path: "str | os.PathLike") -> int:
    """The generation counter of the snapshot at ``path`` (0 if none)."""
    target = os.fspath(path)
    if not is_snapshot(target):
        return 0
    return int(read_manifest(target).get("generation", 0))


def compact(
    store: TripleStore,
    path: "str | os.PathLike | None" = None,
    *,
    include_catalog: bool = True,
) -> dict:
    """Fold the store's WAL into a new snapshot generation, then
    truncate the log. Returns the new manifest.

    Runs off the write path: the snapshot write itself takes no lock
    (writers keep writing; a mutation racing the write aborts it and it
    is retried, with a final stop-the-world attempt under
    :attr:`~repro.graph.store.TripleStore.write_lock`). The log
    truncation — dropping exactly the records the installed snapshot is
    known to contain — runs under the write lock so no batch can
    journal between reading the horizon and cutting the log.

    While any generation of ``path`` is **quarantined** (see
    :func:`repro.storage.generations.quarantine` — a serving pool
    found an installed generation unopenable), the truncation step is
    skipped: the pool is still answering from an *older* generation,
    so cutting the log to the new snapshot's horizon could drop
    records the only adoptable state still needs. The snapshot itself
    is still written (it may be the valid install that lifts the
    quarantine); the returned manifest carries ``wal_truncated`` so
    callers can see which path was taken.
    """
    hook = store.write_log
    if hook is None:
        raise StoreError("store has no write log attached; nothing to compact")
    target = os.fspath(path) if path is not None else hook.snapshot_path
    if target is None:
        raise StoreError("no snapshot path known for this store's log")
    generation = snapshot_generation(target) + 1
    wal = hook.wal

    manifest = None
    horizon = 0
    for attempt in range(_COMPACT_RETRIES + 1):
        last = attempt == _COMPACT_RETRIES
        if last:
            store.write_lock.acquire()
        try:
            # Horizon first, then the write — read under the write lock
            # (reentrant on the stop-the-world attempt) so it can never
            # include a record a mid-batch writer has journaled but not
            # yet applied to the backend. Every record <= horizon was
            # journaled *and* applied before this read, so the snapshot
            # that survives an un-aborted save contains all of them
            # (later batches may abort the save, never silently extend
            # it).
            with store.write_lock:
                horizon = wal.last_seq
            try:
                manifest = save_snapshot(
                    store,
                    target,
                    include_catalog=include_catalog,
                    generation=generation,
                    wal=os.path.basename(wal.path),
                )
                break
            except SnapshotMutatedError:
                # The one retryable abort; anything else (permissions,
                # disk, corruption) would fail again identically.
                if last:
                    raise
        finally:
            if last:
                store.write_lock.release()
    from repro.storage.generations import has_quarantine

    if has_quarantine(target):
        manifest["wal_truncated"] = False
        return manifest
    with store.write_lock:
        wal.truncate_through(horizon)
    manifest["wal_truncated"] = True
    return manifest


def wal_inspect(
    path: "str | os.PathLike", *, include_records: bool = False
) -> dict:
    """Human-oriented summary of a log file (the ``wal-inspect`` verb).

    Never raises for damage: a :class:`WalError` is folded into the
    summary (``error`` key) alongside where replay would stop.

    ``include_records`` (the ``--json`` machine-readable form) adds the
    decoded file ``header`` and a ``record_summaries`` list — one entry
    per intact record with its sequence, sizes, and byte extent — so
    log-shipping agents can ingest the document whole.
    """
    target = os.fspath(path)
    if not os.path.isfile(target):
        # A snapshot directory, or a snapshot path that does not exist
        # yet (a WAL-only store): inspect the paired .wal sibling.
        target = wal_path_for(target)
    summary: dict = {"path": target, "exists": os.path.exists(target)}
    try:
        scan = scan_wal(target)
    except WalError as exc:
        summary.update(
            {
                "status": "corrupt",
                "error": str(exc),
                "size_bytes": os.path.getsize(target),
            }
        )
        return summary
    summary.update(
        {
            "status": "torn-tail" if scan.torn else "clean",
            "records": len(scan.records),
            "last_seq": scan.committed_seq,
            "size_bytes": scan.size_bytes,
            "replay_stops_at": scan.stop_offset,
            "adds": sum(len(r.adds) for r in scan.records),
            "removes": sum(len(r.removes) for r in scan.records),
            "new_terms": sum(len(r.terms) for r in scan.records),
        }
    )
    if scan.torn:
        summary["torn_reason"] = scan.reason
        summary["torn_bytes"] = scan.size_bytes - scan.stop_offset
    if include_records:
        from repro.storage.wal import read_header

        summary["header"] = read_header(target)
        summary["record_summaries"] = [
            {
                "seq": record.seq,
                "terms": len(record.terms),
                "adds": len(record.adds),
                "removes": len(record.removes),
                "offset": record.offset,
                "bytes": record.end - record.offset,
            }
            for record in scan.records
        ]
    return summary
