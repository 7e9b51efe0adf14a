"""Append-only, fsync'd write-ahead log for cheap durable writes.

Snapshots (:mod:`repro.storage.snapshot`) are whole-store: persisting a
mutated store rewrites every segment. The WAL turns an acknowledged
write into one *appended record* instead — the LSM-shaped lifecycle the
ROADMAP asks for: mutable staging → WAL → sealed mmap segments. A WAL
lives **beside** its snapshot (``<snapshot>.wal`` — see
:func:`repro.storage.recovery.wal_path_for`) and is replayed over it on
open; a background compaction folds the log into the next snapshot
generation and truncates it.

File layout::

    file   := header record*
    header := magic b"REPROWAL" · u32 version · u32 flags   (16 bytes)
    record := u32 record-magic "WREC" · u32 payload-length
              · u64 sequence · u32 crc32                    (20 bytes)
              · payload

The CRC covers the sequence number and the payload, so a record is
accepted only when its framing, checksum, and (strictly increasing)
sequence all validate. Each record journals one **add/remove batch**:

* the terms newly interned by the batch (id-ordered, so replay assigns
  the same dense ids) plus the id of the first one (``term_base``),
* the added triples, and the removed triples, as flat native-endian
  ``array('q')`` columns (the header ``flags`` pin the byte order, as
  the snapshot manifest does for segments).

Durability policy is configurable per log: ``fsync="batch"`` (the safe
default — every :meth:`WriteAheadLog.append` is flushed and fsynced
before it returns, so an acknowledged write survives ``kill -9``) or
``fsync="none"`` (leave scheduling to the OS; an explicit
:meth:`~WriteAheadLog.sync` — e.g. ``DurableStore.persist()`` — makes
everything appended so far durable at once).

Under ``fsync="batch"``, concurrent appenders **group-commit**: the
record write happens under the log lock, but the fsync does not — one
appender becomes the sync *leader* while the rest park on a condition
variable, and a single ``fsync`` commits every record flushed before
it was issued. Each appender still returns only once its own record is
durable; contention turns N fsyncs into one without weakening the
acknowledged-write guarantee. The ``group_commits`` / ``absorbed``
gauges (and ``tests/storage/test_group_commit.py``) make the batching
observable.

Torn-write tolerance is **by construction**: a crash mid-append leaves
a truncated or CRC-failing *tail*, which :func:`scan_wal` stops at
cleanly — the store recovers to the last acknowledged batch boundary.
Damage *before* that horizon (an invalid record with intact records
after it, which per-batch fsync promised could not happen) raises
:class:`~repro.errors.WalError` instead of silently dropping
acknowledged writes. Replay itself lives in
:mod:`repro.storage.recovery`.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from array import array
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from repro.errors import WalAppendError, WalError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.dictionary import DictionaryView

FILE_MAGIC = b"REPROWAL"

#: Log format version; bumped on incompatible record-layout changes.
WAL_VERSION = 1

#: Header flag bit: the triple columns are little-endian.
_FLAG_LITTLE_ENDIAN = 1

_FILE_HEADER = struct.Struct("<8sII")
HEADER_BYTES = _FILE_HEADER.size  # 16

#: Per-record framing: magic, payload length, sequence, crc32.
RECORD_MAGIC = b"WREC"
_REC_HEADER = struct.Struct("<4sIQI")
RECORD_HEADER_BYTES = _REC_HEADER.size  # 20

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

_ITEMSIZE = array("q").itemsize

#: Supported fsync policies (see module docstring).
FSYNC_POLICIES = ("batch", "none")


def _header_bytes() -> bytes:
    import sys

    flags = _FLAG_LITTLE_ENDIAN if sys.byteorder == "little" else 0
    return _FILE_HEADER.pack(FILE_MAGIC, WAL_VERSION, flags)


class WalRecord(NamedTuple):
    """One decoded batch record plus its byte extent in the log."""

    seq: int
    term_base: int
    terms: tuple[str, ...]
    adds: list[tuple[int, int, int]]
    removes: list[tuple[int, int, int]]
    offset: int
    end: int


class WalScan(NamedTuple):
    """Outcome of one full validation pass over a log file.

    ``stop_offset`` is where replay stops: the end of the last intact
    record (the committed horizon), or the end of the header for an
    empty/unreadable log. ``torn`` is true when bytes past that horizon
    failed to validate — the expected wreckage of a crash mid-append —
    with ``reason`` saying why the first bad record was rejected.
    """

    records: list[WalRecord]
    committed_seq: int
    stop_offset: int
    size_bytes: int
    torn: bool
    reason: "str | None"


def _encode_payload(
    term_base: int,
    terms: Sequence[str],
    adds: Iterable[tuple[int, int, int]],
    removes: Iterable[tuple[int, int, int]],
) -> bytes:
    parts = [_U64.pack(term_base), _U32.pack(len(terms))]
    for term in terms:
        data = term.encode("utf-8")
        parts.append(_U32.pack(len(data)))
        parts.append(data)
    for triples in (adds, removes):
        flat = array("q")
        for s, p, o in triples:
            flat.append(s)
            flat.append(p)
            flat.append(o)
        parts.append(_U32.pack(len(flat) // 3))
        parts.append(flat.tobytes())
    return b"".join(parts)


def _decode_payload(
    payload: bytes,
) -> tuple[int, tuple[str, ...], list, list]:
    """Inverse of :func:`_encode_payload`; raises ``ValueError`` when the
    payload does not parse (the caller maps that to a record failure)."""
    view = memoryview(payload)
    size = len(view)
    if size < _U64.size + _U32.size:
        raise ValueError("payload shorter than its fixed prelude")
    (term_base,) = _U64.unpack_from(view, 0)
    pos = _U64.size
    (n_terms,) = _U32.unpack_from(view, pos)
    pos += _U32.size
    terms = []
    for _ in range(n_terms):
        if pos + _U32.size > size:
            raise ValueError("truncated term record")
        (length,) = _U32.unpack_from(view, pos)
        pos += _U32.size
        if pos + length > size:
            raise ValueError("truncated term bytes")
        terms.append(bytes(view[pos : pos + length]).decode("utf-8"))
        pos += length
    batches = []
    for _ in range(2):
        if pos + _U32.size > size:
            raise ValueError("truncated triple count")
        (n,) = _U32.unpack_from(view, pos)
        pos += _U32.size
        nbytes = n * 3 * _ITEMSIZE
        if pos + nbytes > size:
            raise ValueError("truncated triple column")
        flat = array("q")
        flat.frombytes(view[pos : pos + nbytes])
        pos += nbytes
        batches.append(
            [
                (flat[i], flat[i + 1], flat[i + 2])
                for i in range(0, len(flat), 3)
            ]
        )
    if pos != size:
        raise ValueError(f"{size - pos} trailing payload bytes")
    return term_base, tuple(terms), batches[0], batches[1]


def encode_record(
    seq: int,
    term_base: int,
    terms: Sequence[str],
    adds: Iterable[tuple[int, int, int]],
    removes: Iterable[tuple[int, int, int]],
) -> bytes:
    """The exact on-disk bytes of one record (framing + payload)."""
    payload = _encode_payload(term_base, terms, adds, removes)
    crc = zlib.crc32(_U64.pack(seq) + payload) & 0xFFFFFFFF
    return _REC_HEADER.pack(RECORD_MAGIC, len(payload), seq, crc) + payload


def _try_record(buf, offset: int, size: int, min_seq: int):
    """Parse and validate one record at ``offset``.

    Returns ``(WalRecord, None)`` on success or ``(None, reason)`` on
    any framing, checksum, sequence, or payload failure.
    """
    if offset + RECORD_HEADER_BYTES > size:
        return None, "truncated record header"
    magic, length, seq, crc = _REC_HEADER.unpack_from(buf, offset)
    if magic != RECORD_MAGIC:
        return None, "bad record magic"
    end = offset + RECORD_HEADER_BYTES + length
    if end > size:
        return None, "truncated record payload"
    payload = bytes(buf[offset + RECORD_HEADER_BYTES : end])
    if zlib.crc32(_U64.pack(seq) + payload) & 0xFFFFFFFF != crc:
        return None, "record checksum mismatch"
    if seq <= min_seq:
        return None, f"non-monotonic sequence {seq} (after {min_seq})"
    try:
        term_base, terms, adds, removes = _decode_payload(payload)
    except ValueError as exc:
        return None, f"undecodable record payload: {exc}"
    return WalRecord(seq, term_base, terms, adds, removes, offset, end), None


def _scan_buffer(buf: bytes, size: int, where: str) -> WalScan:
    if size < HEADER_BYTES:
        # A crash during log *creation* can leave a short header; no
        # record was ever acknowledged against it, so recover as empty.
        return WalScan(
            [], 0, 0, size,
            torn=size > 0,
            reason="torn header" if size > 0 else None,
        )
    magic, version, flags = _FILE_HEADER.unpack_from(buf, 0)
    if magic != FILE_MAGIC:
        raise WalError(f"{where}: not a write-ahead log (bad magic)")
    if version > WAL_VERSION:
        raise WalError(
            f"{where}: log format v{version} is newer than this library "
            f"supports (v{WAL_VERSION})"
        )
    import sys

    little = bool(flags & _FLAG_LITTLE_ENDIAN)
    if little != (sys.byteorder == "little"):
        raise WalError(
            f"{where}: log was written {'little' if little else 'big'}-endian; "
            f"this platform is {sys.byteorder}-endian"
        )

    records: list[WalRecord] = []
    offset = HEADER_BYTES
    committed = 0
    while offset < size:
        record, reason = _try_record(buf, offset, size, committed)
        if record is None:
            # The horizon check: a valid record *after* the damage means
            # this was not a torn tail — appends were acknowledged past
            # it, so their loss is corruption, not a crash artifact.
            resync = _find_valid_record_after(buf, offset, size, committed)
            if resync is not None:
                raise WalError(
                    f"{where}: {reason} at offset {offset}, but an intact "
                    f"record (seq {resync.seq}) follows at offset "
                    f"{resync.offset} — the log is corrupt before its "
                    f"committed horizon"
                )
            return WalScan(
                records, committed, offset, size, torn=True, reason=reason
            )
        records.append(record)
        committed = record.seq
        offset = record.end
    return WalScan(records, committed, offset, size, torn=False, reason=None)


def _find_valid_record_after(buf, failed_at: int, size: int, min_seq: int):
    """First fully-valid record strictly past a failed one, if any.

    Resynchronizes on the record magic: framing is length-prefixed, so
    a corrupt length tears the frame chain — scanning for the magic and
    re-validating (checksum + sequence) is what distinguishes mid-log
    corruption from an ordinary torn tail.
    """
    data = bytes(buf[:size]) if not isinstance(buf, bytes) else buf
    pos = data.find(RECORD_MAGIC, failed_at + 1, size)
    while pos != -1:
        record, _reason = _try_record(data, pos, size, min_seq)
        if record is not None:
            return record
        pos = data.find(RECORD_MAGIC, pos + 1, size)
    return None


def scan_wal(path: "str | os.PathLike") -> WalScan:
    """Validate a log file end to end without applying anything.

    Stops cleanly at a torn tail; raises :class:`WalError` for a
    foreign/mangled header or corruption before the committed horizon.
    A missing file scans as an empty, untorn log.
    """
    target = os.fspath(path)
    try:
        with open(target, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return WalScan([], 0, 0, 0, torn=False, reason=None)
    except OSError as exc:
        raise WalError(f"cannot read write-ahead log {target!r}: {exc}") from exc
    return _scan_buffer(data, len(data), target)


def read_header(path: "str | os.PathLike") -> dict:
    """Decode just a log file's 16-byte header (``wal-inspect --json``).

    Returns ``{"present": False, "bytes": n}`` for a missing or
    too-short file; otherwise the decoded fields plus ``magic_ok`` so
    callers can report a foreign file without raising.
    """
    target = os.fspath(path)
    try:
        with open(target, "rb") as handle:
            raw = handle.read(HEADER_BYTES)
    except FileNotFoundError:
        return {"present": False, "bytes": 0}
    if len(raw) < HEADER_BYTES:
        return {"present": False, "bytes": len(raw)}
    magic, version, flags = _FILE_HEADER.unpack(raw)
    return {
        "present": True,
        "magic_ok": magic == FILE_MAGIC,
        "version": version,
        "flags": flags,
        "byteorder": (
            "little" if flags & _FLAG_LITTLE_ENDIAN else "big"
        ),
    }


def _fsync_dir(path: str) -> None:
    fd = os.open(path or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WriteAheadLog:
    """One open, appendable write-ahead log file.

    Use :meth:`open` (which recovers from a torn tail by physically
    truncating it, after :func:`scan_wal` proved nothing intact follows)
    rather than constructing directly. All methods are thread-safe; the
    append path additionally serializes with
    :attr:`~repro.graph.store.TripleStore.write_lock` when attached via
    :class:`WalWriteHook`.
    """

    def __init__(self, path: str, handle, *, fsync: str,
                 records: list[tuple[int, int, int]], end_offset: int):
        self.path = path
        self.fsync_policy = fsync
        self._handle = handle
        #: (seq, offset, end) per live record — the truncation index.
        self._index = records
        #: High-water sequence ever seen through this handle; survives
        #: truncation so sequences never move backwards.
        self._last_seq = records[-1][0] if records else 0
        self._end = end_offset
        self._lock = threading.RLock()
        self._closed = False
        #: Total appends acknowledged through this handle (gauge).
        self.appended = 0
        # Group-commit state. ``_sync_lock`` serializes the fsync
        # itself (and, held *outer* to ``_lock``, fences the handle
        # swap in truncate_through/close against an in-flight fsync);
        # ``_sync_cond`` guards the durable horizon and leader flag.
        self._sync_lock = threading.Lock()
        self._sync_cond = threading.Condition()
        self._syncing = False
        #: Highest sequence known to be on stable storage. Everything
        #: a fresh open scanned was fsynced before acknowledgement.
        self._durable_seq = self._last_seq
        #: Fsyncs issued by batch-mode appends (each may commit many).
        self.group_commits = 0
        #: Appends made durable by *another* appender's fsync.
        self.absorbed = 0
        #: Every fsync this handle issued against the log file (group
        #: commits, explicit seals, truncations, close).
        self.fsyncs = 0
        #: Appends that failed at the OS level (ENOSPC, EIO, ...) and
        #: were rolled back; each raised :class:`WalAppendError`.
        self.append_failures = 0
        #: Rollbacks of flushed-but-unsynced records after a failed
        #: group-commit fsync (each may abort several appends at once).
        self.rollbacks = 0
        #: Degraded flag: set when an append or fsync fails, cleared by
        #: the next fully durable append (see :meth:`probe`).
        self._degraded = False
        #: Sequences issued but rolled back after an fsync failure;
        #: parked group-commit waiters at or below this raise instead
        #: of reporting durability (guarded by ``_sync_cond``).
        self._aborted_below = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, path: "str | os.PathLike", *, fsync: str = "batch",
             ) -> "WriteAheadLog":
        """Open (creating if missing) a log for appending.

        An existing log is scanned first: a torn tail is truncated away
        (its bytes were never acknowledged), corruption before the
        committed horizon raises :class:`WalError`. The caller replays
        the scanned records *before* appending — see
        :func:`repro.storage.recovery.open_store`.
        """
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; expected one of "
                f"{FSYNC_POLICIES}"
            )
        target = os.fspath(path)
        scan = scan_wal(target)
        if scan.size_bytes < HEADER_BYTES:
            # New log (or torn creation): write a fresh, durable header.
            with open(target, "wb") as handle:
                handle.write(_header_bytes())
                handle.flush()
                os.fsync(handle.fileno())
            _fsync_dir(os.path.dirname(os.path.abspath(target)))
            scan = WalScan([], 0, HEADER_BYTES, HEADER_BYTES, False, None)
        handle = open(target, "r+b")
        try:
            if scan.torn:
                handle.truncate(scan.stop_offset)
                handle.flush()
                os.fsync(handle.fileno())
            handle.seek(scan.stop_offset)
        except BaseException:
            handle.close()
            raise
        return cls(
            target,
            handle,
            fsync=fsync,
            records=[(r.seq, r.offset, r.end) for r in scan.records],
            end_offset=scan.stop_offset,
        )

    def close(self) -> None:
        """Flush, fsync, and close the underlying file (idempotent).

        Takes ``_sync_lock`` first so an in-flight group-commit fsync
        finishes against a live fd before the handle goes away.
        """
        with self._sync_lock, self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self.fsyncs += 1
            finally:
                self._handle.close()
        with self._sync_cond:
            self._durable_seq = self._last_seq
            self._sync_cond.notify_all()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def last_seq(self) -> int:
        """Highest sequence ever committed (0 = never appended).

        Monotonic across :meth:`truncate_through` — compaction folds
        records away but never rewinds the sequence clock.
        """
        with self._lock:
            return self._last_seq

    @property
    def degraded(self) -> bool:
        """True after a failed append/fsync until one succeeds again."""
        with self._lock:
            return self._degraded

    @property
    def record_count(self) -> int:
        with self._lock:
            return len(self._index)

    @property
    def size_bytes(self) -> int:
        with self._lock:
            return self._end

    def stats(self) -> dict:
        """JSON-compatible gauges (the ``/v1/stats`` ``wal`` payload)."""
        with self._lock:
            return {
                "path": self.path,
                "records": len(self._index),
                "last_seq": self._last_seq,
                "size_bytes": self._end,
                "fsync": self.fsync_policy,
                "appended": self.appended,
                "fsyncs": self.fsyncs,
                "group_commits": self.group_commits,
                "absorbed": self.absorbed,
                "durable_seq": self._durable_seq,
                "append_failures": self.append_failures,
                "rollbacks": self.rollbacks,
                "degraded": self._degraded,
            }

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def append(
        self,
        *,
        term_base: int = 0,
        terms: Sequence[str] = (),
        adds: Iterable[tuple[int, int, int]] = (),
        removes: Iterable[tuple[int, int, int]] = (),
    ) -> int:
        """Append one batch record; returns its sequence number.

        Under the default ``fsync="batch"`` policy the record is on
        stable storage when this returns — the batch is *committed* and
        will survive any crash after this point. Concurrent appenders
        share fsyncs (group commit): the write happens under the log
        lock, the durability wait happens outside it.

        A write that fails at the OS level (disk full, I/O error) is
        rolled back: the file is truncated to the failing record's
        start offset — records already flushed by other appenders are
        untouched — the log flips :attr:`degraded`, and
        :class:`~repro.errors.WalAppendError` is raised. The log stays
        open and consistent; the next successful append (see
        :meth:`probe`) clears the flag.
        """
        with self._lock:
            if self._closed:
                raise WalError(f"write-ahead log {self.path!r} is closed")
            seq = self._last_seq + 1
            blob = encode_record(seq, term_base, terms, adds, removes)
            try:
                self._handle.seek(self._end)
                self._handle.write(blob)
                self._handle.flush()
            except OSError as exc:
                # Roll back to this record's start: nothing of it was
                # acknowledged, and everything before self._end was
                # flushed by completed appends. A failing truncate is
                # tolerable — the partial bytes are a torn tail the
                # next open cuts away.
                self.append_failures += 1
                self._degraded = True
                try:
                    self._handle.truncate(self._end)
                    self._handle.seek(self._end)
                except OSError:
                    pass
                raise WalAppendError(
                    f"write-ahead log {self.path!r}: append of seq {seq} "
                    f"failed and was rolled back: {exc}"
                ) from exc
            offset = self._end
            self._end = offset + len(blob)
            self._index.append((seq, offset, self._end))
            self._last_seq = seq
            self.appended += 1
        if self.fsync_policy == "batch":
            self._sync_through(seq)
        with self._lock:
            if self._degraded:
                self._degraded = False
        return seq

    def _sync_through(self, seq: int) -> None:
        """Block until record ``seq`` is on stable storage (group commit).

        At most one thread fsyncs at a time (the *leader*); late
        arrivals whose records were flushed before the leader's fsync
        are absorbed by it and never touch the disk themselves. Records
        are flushed to the OS under ``_lock`` before this is called, so
        one fsync commits everything up to the ``last_seq`` the leader
        observes when it starts.
        """
        with self._sync_cond:
            led = False
            while self._durable_seq < seq:
                if seq <= self._aborted_below:
                    # This record was rolled back by a failed fsync
                    # (possibly another appender's): it will never
                    # become durable, so the append must not report
                    # success.
                    raise WalAppendError(
                        f"write-ahead log {self.path!r}: seq {seq} was "
                        f"rolled back after a failed fsync"
                    )
                if not self._syncing:
                    self._syncing = True
                    led = True
                    break
                self._sync_cond.wait()
            if not led:
                if seq:
                    self.absorbed += 1
                return
        try:
            with self._sync_lock:
                with self._lock:
                    if self._closed:
                        raise WalError(
                            f"write-ahead log {self.path!r} is closed"
                        )
                    fd = self._handle.fileno()
                    target = self._last_seq
                # The fsync runs outside ``_lock`` so appenders keep
                # writing (and queueing onto this commit's successor)
                # while the disk works; ``_sync_lock`` keeps the fd
                # alive against truncate_through's handle swap.
                try:
                    os.fsync(fd)
                except OSError as exc:
                    # Still holding _sync_lock: roll every flushed-but-
                    # unsynced record back to the durable horizon and
                    # raise WalAppendError (for this appender; parked
                    # waiters raise through the watermark above).
                    self._rollback_unsynced(exc)
                self.fsyncs += 1
        except BaseException:
            with self._sync_cond:
                self._syncing = False
                self._sync_cond.notify_all()
            raise
        with self._sync_cond:
            self._syncing = False
            if target > self._durable_seq:
                self._durable_seq = target
            self.group_commits += 1
            self._sync_cond.notify_all()

    def _rollback_unsynced(self, cause: OSError) -> None:
        """Roll flushed-but-unsynced records back after a failed fsync.

        Called by the group-commit leader with ``_sync_lock`` held.
        Every record past the durable horizon was flushed to the OS but
        never reached stable storage — none of them were acknowledged
        (their appenders are parked in :meth:`_sync_through`), so the
        file is truncated back to the horizon, the aborted sequences
        are published through ``_aborted_below`` (waiters raise instead
        of reporting durability), and :class:`WalAppendError` is raised
        for the leader's own append. ``_last_seq`` is *not* rewound:
        the scanner only needs strictly increasing sequences, and never
        reusing an aborted one keeps replay unambiguous.
        """
        with self._sync_cond:
            durable = self._durable_seq
        with self._lock:
            keep = [entry for entry in self._index if entry[0] <= durable]
            dropped = len(self._index) - len(keep)
            aborted_through = self._last_seq
            boundary = keep[-1][2] if keep else HEADER_BYTES
            self._index = keep
            self._end = boundary
            try:
                self._handle.truncate(boundary)
                self._handle.seek(boundary)
            except OSError:
                # The unsynced tail stays as torn bytes; the next open
                # truncates it (nothing intact follows the horizon).
                pass
            self.rollbacks += 1
            self._degraded = True
        with self._sync_cond:
            if aborted_through > self._aborted_below:
                self._aborted_below = aborted_through
        raise WalAppendError(
            f"write-ahead log {self.path!r}: fsync failed ({cause}); "
            f"rolled back {dropped} unsynced record(s) to durable seq "
            f"{durable}"
        ) from cause

    def probe(self) -> bool:
        """Test whether appends can be made durable again.

        Appends one empty record through the normal (group-committed)
        path — replay treats it as a no-op, and compaction folds it
        away like any other record. Returns ``True`` and clears
        :attr:`degraded` on success; ``False`` if the append still
        fails. The recovery half of degraded mode: a service flips
        read-only on :class:`~repro.errors.WalAppendError` and probes
        its way back once space returns.
        """
        try:
            self.append()
        except WalAppendError:
            return False
        return True

    def sync(self) -> None:
        """Force everything appended so far onto stable storage.

        The *seal* operation: under ``fsync="none"`` this is the one
        durability point; under ``fsync="batch"`` it is a cheap no-op
        confirmation. Joins the group-commit queue, so a concurrent
        appender's fsync can satisfy it for free.
        """
        with self._lock:
            if self._closed:
                raise WalError(f"write-ahead log {self.path!r} is closed")
            self._handle.flush()
            last = self._last_seq
        self._sync_through(last)

    def truncate_through(self, seq: int) -> int:
        """Drop every record with sequence ``<= seq``; returns how many.

        The compaction step: records folded into a snapshot generation
        are removed from the log **atomically** (tail records are
        rewritten into a sibling file that is fsynced and renamed over
        the log), so a crash mid-truncation leaves either the old log
        or the new one — never a half-truncated file. Sequence numbers
        of surviving records are preserved (the scanner only requires
        strict monotonicity, not density).

        ``_sync_lock`` is taken *outer* to ``_lock`` — the one ordering
        used everywhere both are held — so the handle swap below cannot
        yank the fd out from under a group-commit leader's fsync.
        """
        with self._sync_lock, self._lock:
            if self._closed:
                raise WalError(f"write-ahead log {self.path!r} is closed")
            keep = [entry for entry in self._index if entry[0] > seq]
            dropped = len(self._index) - len(keep)
            if dropped == 0:
                return 0
            tmp = f"{self.path}.tmp-{os.getpid()}"
            header = _header_bytes()
            with open(tmp, "wb") as out:
                out.write(header)
                for _seq, offset, end in keep:
                    self._handle.seek(offset)
                    out.write(self._handle.read(end - offset))
                out.flush()
                os.fsync(out.fileno())
                self.fsyncs += 1
            os.replace(tmp, self.path)
            _fsync_dir(os.path.dirname(os.path.abspath(self.path)))
            self._handle.close()
            self._handle = open(self.path, "r+b")
            new_index = []
            pos = len(header)
            for entry_seq, offset, end in keep:
                length = end - offset
                new_index.append((entry_seq, pos, pos + length))
                pos += length
            self._index = new_index
            self._end = pos
            self._handle.seek(pos)
            last = self._last_seq
        # The rewritten file was fsynced before the rename, so every
        # surviving record is durable — release any parked appenders.
        with self._sync_cond:
            if last > self._durable_seq:
                self._durable_seq = last
            self._sync_cond.notify_all()
        return dropped


class WalWriteHook:
    """The store-side journaling hook: WAL first, then the backend.

    Attached via :meth:`TripleStore.attach_write_log
    <repro.graph.store.TripleStore.attach_write_log>`, it receives every
    add/remove batch *before* the backend mutates (both shipped
    backends — journaling lives above the physical layout). Newly
    interned dictionary terms ride along automatically: the hook keeps
    a watermark of how many terms are already durable (snapshot terms
    plus previously journaled ones) and journals the delta with each
    batch, so replay re-interns them at identical ids.
    """

    def __init__(
        self,
        wal: WriteAheadLog,
        dictionary: "DictionaryView",
        terms_logged: "int | None" = None,
        snapshot_path: "str | None" = None,
    ):
        self.wal = wal
        self._dictionary = dictionary
        self._terms_logged = (
            len(dictionary) if terms_logged is None else terms_logged
        )
        #: The snapshot target this log belongs to (compaction folds
        #: into it); ``None`` for a free-standing log.
        self.snapshot_path = snapshot_path

    @property
    def terms_logged(self) -> int:
        """Dictionary watermark: ids below this are durable already."""
        return self._terms_logged

    def journal(
        self,
        adds: Sequence[tuple[int, int, int]],
        removes: Sequence[tuple[int, int, int]],
    ) -> "int | None":
        """Make one batch durable; returns its sequence (None if empty).

        Fully-empty batches (no triples, no new terms) are not
        journaled — replay would no-op on them anyway, and skipping
        them keeps an idle writer from growing the log.
        """
        total = len(self._dictionary)
        base = self._terms_logged
        if total > base:
            new_terms = self._dictionary.decode_many(range(base, total))
        else:
            new_terms = ()
        if not adds and not removes and not new_terms:
            return None
        seq = self.wal.append(
            term_base=base, terms=new_terms, adds=adds, removes=removes
        )
        self._terms_logged = total
        return seq
