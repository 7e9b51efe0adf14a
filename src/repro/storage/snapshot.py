"""Durable snapshots: save a frozen store to disk, warm-start it back.

A snapshot is a directory::

    <snapshot>/
        MANIFEST.json      format version, backend, byte layout, counts,
                           epoch, and a sha256 checksum per data file
        terms.dict         the term dictionary (length-prefixed UTF-8,
                           id order — see Dictionary.dump)
        terms.idx          format v2: the offset table + sorted-id
                           permutation making terms.dict randomly
                           addressable (see repro.storage.termdict)
        catalog.json       the statistics catalog (optional)
        segments/p<id>.seg one binary segment per non-empty predicate
                           (see repro.storage.segments)

Loading is either **eager** — segments are parsed into owned arrays and
imported through the backend's :meth:`import_segments` hook, which any
backend supports — or **memory-mapped** (the default onto the columnar
backend): segment files are mapped and their columns handed to the
store as zero-copy ``memoryview('q')`` casts, so a warm start skips
N-Triples parsing, dictionary encoding, deduplication, and sorting
entirely; the OS pages column bytes in on first touch.

The term dictionary follows the same split: **eager** loads parse
``terms.dict`` into an in-memory :class:`Dictionary`, while **lazy**
loads (``lazy_terms=True``, the default for memory-mapped opens of a
v2 snapshot) hand the mapped ``terms.dict``/``terms.idx`` pair to a
:class:`~repro.storage.termdict.MmapDictionary` that decodes terms on
demand — no ``_term_to_id`` / ``_id_to_term`` materialization, so the
open cost is O(1) in vocabulary size. Format v1 snapshots (no
``terms.idx``) remain fully loadable through the eager path.

Saves are **atomic**: everything is written into a ``<dir>.tmp-<pid>``
sibling (manifest last, each file fsynced), renamed to a
``<dir>.data-*`` payload directory, and installed by renaming a
**symlink** over the target path — POSIX cannot atomically replace one
directory with another, but it can atomically replace a symlink, so a
reader always sees either the previous complete snapshot or the new
one, never a missing or half-written directory, and a killed save
never leaves a loadable half-written snapshot (at worst inert
``.tmp-``/``.data-`` litter). Corruption is detected on load via the
per-file checksums; any mismatch, truncation, or foreign format raises
:class:`~repro.errors.SnapshotError` rather than a mis-loaded store.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import mmap
import os
import shutil
import sys
from typing import TYPE_CHECKING, Iterator

from repro.errors import SnapshotError, SnapshotMutatedError
from repro.graph.backends import StorageBackend, create_backend
from repro.graph.backends.base import Segment
from repro.graph.dictionary import Dictionary
from repro.graph.store import TripleStore
from repro.storage.segments import (
    ITEMSIZE,
    read_segment,
    segment_view,
    write_segment,
)
from repro.storage.termdict import MmapDictionary, write_term_index
from repro.storage.wal import _fsync_dir

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stats.catalog import Catalog

#: Current snapshot format. v2 adds the ``terms.idx`` offset table
#: behind the lazy mmap dictionary; v1 snapshots (no index) are still
#: fully readable through the eager dictionary path. The loader
#: refuses snapshots from a *newer* format outright.
FORMAT_VERSION = 2

MANIFEST_FILE = "MANIFEST.json"
TERMS_FILE = "terms.dict"
TERMS_IDX_FILE = "terms.idx"
CATALOG_FILE = "catalog.json"
SEGMENTS_DIR = "segments"


def is_snapshot(path: "str | os.PathLike") -> bool:
    """Whether ``path`` looks like a snapshot directory (has a manifest)."""
    return os.path.isfile(os.path.join(os.fspath(path), MANIFEST_FILE))


def read_manifest(path: "str | os.PathLike") -> dict:
    """Read and structurally validate a snapshot manifest.

    Performs the format-version and byte-layout gates; content
    checksums are verified later, against the files actually read.
    """
    manifest_path = os.path.join(os.fspath(path), MANIFEST_FILE)
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise SnapshotError(
            f"{os.fspath(path)!r} is not a snapshot (no {MANIFEST_FILE})"
        ) from None
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"unreadable snapshot manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise SnapshotError("snapshot manifest is not a JSON object")

    version = manifest.get("format_version")
    if not isinstance(version, int) or version < 1:
        raise SnapshotError(f"snapshot has no valid format version: {version!r}")
    if version > FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot format v{version} is newer than this library "
            f"supports (v{FORMAT_VERSION}); upgrade the library to load it"
        )
    if manifest.get("itemsize") != ITEMSIZE:
        raise SnapshotError(
            f"snapshot uses {manifest.get('itemsize')}-byte ids; this "
            f"platform uses {ITEMSIZE}-byte ids"
        )
    if manifest.get("byteorder") != sys.byteorder:
        raise SnapshotError(
            f"snapshot is {manifest.get('byteorder')}-endian; this "
            f"platform is {sys.byteorder}-endian"
        )
    for key in ("num_triples", "num_terms", "predicates", "files"):
        if key not in manifest:
            raise SnapshotError(f"snapshot manifest is missing {key!r}")
    return manifest


class _HashingWriter:
    """File-object wrapper computing sha256 and byte count as it writes."""

    def __init__(self, handle) -> None:
        self._handle = handle
        self.sha = hashlib.sha256()
        self.nbytes = 0

    def write(self, data) -> int:
        self.sha.update(data)
        self.nbytes += len(data)
        return self._handle.write(data)


def _write_file(directory: str, rel: str, writer, files: dict) -> None:
    """Write one data file via ``writer(handle)``, fsync it, and record
    its checksum entry under its forward-slash relative name."""
    dest = os.path.join(directory, *rel.split("/"))
    with open(dest, "wb") as handle:
        hashing = _HashingWriter(handle)
        writer(hashing)
        handle.flush()
        os.fsync(handle.fileno())
    files[rel] = {"sha256": hashing.sha.hexdigest(), "bytes": hashing.nbytes}


def save_snapshot(
    store: TripleStore,
    path: "str | os.PathLike",
    *,
    catalog: "Catalog | None" = None,
    include_catalog: bool = True,
    overwrite: bool = True,
    generation: int = 0,
    wal: "str | None" = None,
) -> dict:
    """Serialize ``store`` (and optionally its catalog) under ``path``.

    Returns the manifest that was written. The save is atomic (see the
    module docstring); ``overwrite=False`` refuses to replace an
    existing snapshot. ``catalog=None`` with ``include_catalog=True``
    uses the store's memoized catalog — the offline-preprocessing
    workflow — so a later :func:`~repro.datasets.loader.load_dataset`
    (``--snapshot``, ``QueryService.from_snapshot``) needs no statistics
    rebuild. The store need not be frozen, but a *mutation racing the
    save* is detected through the epoch counter and aborts it rather
    than renaming a torn snapshot into place
    (callers that must not race hold the store's ``write_lock`` — see
    ``DurableStore.persist`` — or go through the WAL compactor's
    retry loop instead).

    ``generation`` is the compaction counter stamped into the manifest
    (each WAL fold-in bumps it); ``wal`` records the basename of the
    paired write-ahead log so tooling can find the delta file that
    accompanies this snapshot.
    """
    target = os.fspath(path)
    if os.path.exists(target) and not os.path.isdir(target):
        raise SnapshotError(f"snapshot target {target!r} is not a directory")
    if os.path.isdir(target) and not overwrite:
        raise SnapshotError(f"snapshot {target!r} already exists")

    epoch = store.epoch
    tmp = f"{target}.tmp-{os.getpid()}"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(os.path.join(tmp, SEGMENTS_DIR))
    try:
        files: dict[str, dict] = {}
        # The eager dictionary reports each record's offset while the
        # dict file streams out, so the v2 offset table costs no second
        # encode pass; other views (notably MmapDictionary, which dumps
        # its mapped index verbatim) take the plain path.
        dictionary = store.dictionary
        record_offsets: "list[int] | None" = (
            [] if isinstance(dictionary, Dictionary) else None
        )
        if record_offsets is not None:
            _write_file(
                tmp,
                TERMS_FILE,
                lambda out: dictionary.dump(out, record_offsets),
                files,
            )
        else:
            _write_file(tmp, TERMS_FILE, dictionary.dump, files)
        _write_file(
            tmp,
            TERMS_IDX_FILE,
            lambda out: write_term_index(out, dictionary, record_offsets),
            files,
        )

        predicates = []
        for p, segment in store.backend.export_segments():
            rel = f"{SEGMENTS_DIR}/p{p}.seg"
            _write_file(
                tmp, rel, lambda out, seg=segment: write_segment(out, seg), files
            )
            predicates.append(
                {"id": p, "pairs": segment.num_pairs, "file": rel}
            )

        if include_catalog:
            if catalog is None:
                catalog = store.catalog()
            payload = json.dumps(catalog.to_dict()).encode("utf-8")
            _write_file(tmp, CATALOG_FILE, lambda out: out.write(payload), files)

        if store.epoch != epoch:
            raise SnapshotMutatedError(epoch, store.epoch)

        manifest = {
            "format_version": FORMAT_VERSION,
            "backend": store.backend_name,
            "byteorder": sys.byteorder,
            "itemsize": ITEMSIZE,
            "num_triples": store.num_triples,
            "num_terms": len(store.dictionary),
            "epoch": epoch,
            "generation": generation,
            "has_catalog": include_catalog,
            "predicates": predicates,
            "files": files,
        }
        if wal is not None:
            manifest["wal"] = wal
        # The manifest is written last: a snapshot without one is, by
        # definition, not loadable, so a crash anywhere above leaves
        # only an inert .tmp directory behind.
        with open(os.path.join(tmp, MANIFEST_FILE), "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2)
            f.write("\n")
            f.flush()
            os.fsync(f.fileno())
        _fsync_dir(os.path.join(tmp, SEGMENTS_DIR))
        _fsync_dir(tmp)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise

    _install(tmp, target)
    return manifest


#: Uniquifies payload/link sibling names within one process; the pid
#: suffix distinguishes concurrent processes.
_SIBLING_SEQ = itertools.count()


def _unique_sibling(base: str) -> str:
    while True:
        candidate = f"{base}-{os.getpid()}-{next(_SIBLING_SEQ)}"
        if not os.path.lexists(candidate):
            return candidate


def _install(tmp: str, target: str) -> None:
    """Atomically make ``target`` resolve to the finished ``tmp`` dir.

    The written tree is renamed to a ``<target>.data-*`` payload
    sibling and a symlink is renamed over ``target`` — the only
    directory-replacement POSIX can do atomically. A reader therefore
    sees the old snapshot or the new one, never neither. The one
    non-atomic case is converting a pre-symlink snapshot (a plain
    directory at ``target``): it is displaced first, leaving a brief
    window — every save after the conversion is fully atomic.
    """
    parent = os.path.dirname(target) or "."
    payload = _unique_sibling(f"{target}.data")
    os.rename(tmp, payload)
    old_payload = None
    if os.path.islink(target):
        previous = os.readlink(target)
        if not os.path.isabs(previous):
            previous = os.path.join(parent, previous)
        old_payload = previous
    _flip_link(target, payload)
    if old_payload is not None and os.path.isdir(old_payload):
        shutil.rmtree(old_payload, ignore_errors=True)


def _flip_link(target: str, payload: str) -> None:
    """Atomically point the symlink ``target`` at its sibling ``payload``.

    A fresh link is renamed over ``target``, then the parent directory
    is fsynced, so the flip is durable once this returns. Installs and
    generation rollbacks both go through here. A legacy plain directory
    at ``target`` is displaced first (the non-atomic case above).
    """
    link = _unique_sibling(f"{target}.lnk")
    os.symlink(os.path.basename(payload), link)
    try:
        os.rename(link, target)
    except IsADirectoryError:
        # Legacy plain-directory target: displace, then install.
        displaced = _unique_sibling(f"{target}.old")
        os.rename(target, displaced)
        os.rename(link, target)
        shutil.rmtree(displaced, ignore_errors=True)
    except OSError:
        os.unlink(link)
        raise
    _fsync_dir(os.path.dirname(os.path.abspath(target)))


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


def _checked_read(directory: str, rel: str, manifest: dict, verify: bool) -> bytes:
    """Read one data file fully, verifying its manifest checksum."""
    entry = manifest["files"].get(rel)
    if entry is None:
        raise SnapshotError(f"snapshot manifest has no entry for {rel!r}")
    try:
        with open(os.path.join(directory, *rel.split("/")), "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        raise SnapshotError(f"snapshot is missing {rel!r}") from None
    _verify_blob(blob, rel, entry, verify)
    return blob


def _verify_blob(blob, rel: str, entry: dict, verify: bool) -> None:
    if len(blob) != entry.get("bytes"):
        raise SnapshotError(
            f"snapshot file {rel!r} is {len(blob)} bytes, "
            f"manifest says {entry.get('bytes')}"
        )
    if verify and hashlib.sha256(blob).hexdigest() != entry.get("sha256"):
        raise SnapshotError(
            f"checksum mismatch on {rel!r}: snapshot is corrupt"
        )


def _mapped_view(directory: str, rel: str, manifest: dict, verify: bool) -> memoryview:
    """Map one segment file read-only and verify it in place."""
    entry = manifest["files"].get(rel)
    if entry is None:
        raise SnapshotError(f"snapshot manifest has no entry for {rel!r}")
    try:
        with open(os.path.join(directory, *rel.split("/")), "rb") as handle:
            if entry.get("bytes") == 0:
                return memoryview(b"")
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except FileNotFoundError:
        raise SnapshotError(f"snapshot is missing {rel!r}") from None
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"cannot map snapshot file {rel!r}: {exc}") from exc
    view = memoryview(mapped)
    _verify_blob(view, rel, entry, verify)
    return view


def _load_segments(
    directory: str, manifest: dict, use_mmap: bool, verify: bool
) -> Iterator[tuple[int, Segment]]:
    for entry in manifest["predicates"]:
        p, rel = entry["id"], entry["file"]
        if use_mmap:
            view = _mapped_view(directory, rel, manifest, verify)
            segment = segment_view(view, rel)
        else:
            segment = read_segment(
                _checked_read(directory, rel, manifest, verify), rel
            )
        if segment.num_pairs != entry["pairs"]:
            raise SnapshotError(
                f"snapshot segment {rel!r} holds {segment.num_pairs} "
                f"pairs, manifest says {entry['pairs']}"
            )
        yield p, segment


def load_snapshot(
    path: "str | os.PathLike",
    *,
    backend: "StorageBackend | str | None" = None,
    use_mmap: bool | None = None,
    lazy_terms: bool | None = None,
    verify: bool = True,
    freeze: bool = True,
) -> TripleStore:
    """Reconstruct a :class:`TripleStore` from a snapshot directory.

    ``backend`` picks the physical layout of the loaded store (name,
    instance, or ``None`` for the ``REPRO_BACKEND``/default selection) —
    snapshots are backend-independent on the way in. ``use_mmap=None``
    resolves to ``True`` exactly when the chosen backend is columnar
    (whose sealed layout the segment bytes *are*); forcing it on for
    other backends still works but buys nothing, since they rebuild
    their own indexes from the mapped pairs. ``lazy_terms=None``
    resolves to ``True`` exactly when the open is memory-mapped, the
    snapshot carries a ``terms.idx`` (format v2), *and* the store is
    being frozen (an unfrozen load must keep interning): the store's
    dictionary is then a zero-materialization
    :class:`~repro.storage.termdict.MmapDictionary` over the mapped
    term files. ``lazy_terms=True`` on a v1 snapshot raises
    :class:`SnapshotError` (re-save to upgrade); ``lazy_terms=False``
    forces the eager in-memory dictionary. ``verify=False`` skips the
    sha256 pass for trusted local snapshots; structural gates (format
    version, byte layout, counts, offset-column invariants) always run.
    """
    directory = os.fspath(path)
    manifest = read_manifest(directory)

    if isinstance(backend, StorageBackend):
        backend_impl = backend
    else:
        backend_impl = create_backend(backend)
    if backend_impl.num_triples:
        raise SnapshotError("load_snapshot() requires an empty backend")
    if use_mmap is None:
        use_mmap = backend_impl.name == "columnar"
    has_term_index = TERMS_IDX_FILE in manifest["files"]
    if lazy_terms is None:
        # Only a *frozen* open defaults to the mapped dictionary: an
        # unfrozen load exists to keep adding triples, which needs a
        # dictionary that can intern new terms.
        lazy_terms = use_mmap and has_term_index and freeze
    elif lazy_terms and not has_term_index:
        raise SnapshotError(
            "snapshot has no term index (format v1); re-save it to "
            "enable lazy_terms"
        )

    dictionary = _load_dictionary(directory, manifest, lazy_terms, verify)
    store = TripleStore(dictionary=dictionary, backend=backend_impl)
    backend_impl.import_segments(
        _load_segments(directory, manifest, use_mmap, verify)
    )
    if store.num_triples != manifest["num_triples"]:
        raise SnapshotError(
            f"snapshot declared {manifest['num_triples']} triples "
            f"but {store.num_triples} were loaded"
        )
    if freeze:
        store.freeze()
    return store


def _load_dictionary(
    directory: str, manifest: dict, lazy_terms: bool, verify: bool
):
    """The snapshot's term dictionary, eager or mapped.

    The lazy path maps ``terms.dict`` and ``terms.idx`` and hands them
    to :class:`MmapDictionary` — O(1) in term count (``verify=True``
    still streams both files once through sha256, which is the only
    size-proportional cost left on that path). The eager path parses
    every record into an in-memory :class:`Dictionary`, which is also
    the only path a v1 snapshot (no index file) can take.
    """
    if lazy_terms:
        dict_view = _mapped_view(directory, TERMS_FILE, manifest, verify)
        idx_view = _mapped_view(directory, TERMS_IDX_FILE, manifest, verify)
        try:
            return MmapDictionary(
                dict_view, idx_view, count=manifest["num_terms"]
            )
        except SnapshotError:
            raise
        except Exception as exc:
            raise SnapshotError(f"corrupt snapshot dictionary: {exc}") from exc
    terms = _checked_read(directory, TERMS_FILE, manifest, verify)
    try:
        return Dictionary.load(io.BytesIO(terms), count=manifest["num_terms"])
    except Exception as exc:
        raise SnapshotError(f"corrupt snapshot dictionary: {exc}") from exc


def load_snapshot_catalog(
    path: "str | os.PathLike", verify: bool = True
) -> "Catalog | None":
    """The catalog stored alongside a snapshot, or ``None`` if absent."""
    from repro.stats.catalog import Catalog

    directory = os.fspath(path)
    manifest = read_manifest(directory)
    if CATALOG_FILE not in manifest["files"]:
        return None
    blob = _checked_read(directory, CATALOG_FILE, manifest, verify)
    try:
        return Catalog.from_dict(json.loads(blob.decode("utf-8")))
    except Exception as exc:
        raise SnapshotError(f"corrupt snapshot catalog: {exc}") from exc
