"""The lifecycle of one journaled store: seal, fold-in, compactor, probe.

:class:`DurableStore` owns everything a crash-safe store (a snapshot
plus its write-ahead log, see :func:`~repro.storage.open_store`) does
besides answering queries: sealing the log, folding it into snapshot
generations (now, or from a background compactor), and **degraded
mode** — after a failed append the log refuses writes until a
rate-limited recovery probe makes an append durable again.
``QueryService.from_snapshot(path, wal=True)`` keeps one as
``service.durable``.
"""

from __future__ import annotations

import os
import threading
import time

from repro.errors import WalError
from repro.graph.store import TripleStore
from repro.storage.recovery import (
    close_store,
    compact,
    open_store,
    snapshot_generation,
)
from repro.storage.snapshot import save_snapshot
from repro.storage.wal import HEADER_BYTES


class DurableStore:
    """A journaled store plus its persist / compact / probe machinery.

    Build one with :meth:`open`; the constructor adopts a store that
    :func:`~repro.storage.open_store` already opened.
    """

    #: Minimum seconds between two degraded-mode recovery probes.
    PROBE_INTERVAL_SECONDS = 5.0

    def __init__(self, store: TripleStore):
        hook = store.write_log
        self.store = store
        self.path: str = hook.snapshot_path
        #: The snapshot generation being served: read at open, advanced
        #: by every :meth:`compact`.
        self.generation = snapshot_generation(self.path)
        self.compactions = 0
        #: Recovery probes run, by outcome.
        self.probes = {"ok": 0, "failed": 0}
        # Held past close(), so the gauges stay readable.
        self._wal = hook.wal
        self._compactor: "threading.Thread | None" = None
        self._compactor_stop = threading.Event()
        self._probe_lock = threading.Lock()
        self._last_probe = 0.0

    @classmethod
    def open(
        cls,
        path,
        *,
        backend: "str | None" = None,
        fsync: str = "batch",
        verify: bool = True,
    ) -> "DurableStore":
        """Open (or create) the crash-safe store at ``path``: load the
        snapshot if one exists, replay its log and attach the journaling
        hook. The store arrives unfrozen; under ``fsync="batch"`` every
        acknowledged mutation survives ``kill -9``."""
        return cls(open_store(path, backend=backend, fsync=fsync, verify=verify))

    def persist(
        self,
        path=None,
        *,
        full: bool = False,
        include_catalog: bool = True,
        overwrite: bool = True,
    ) -> dict:
        """Make the store durable at its current state.

        Without a foreign ``path`` this is one ``fsync`` sealing the log
        (every batch is already journaled), whatever the store's size;
        the receipt carries the log gauges (``{"sealed": True, "wal":
        ...}``). With a foreign ``path``, or ``full=True``, a whole-store
        snapshot is written by :func:`repro.storage.save_snapshot` under
        the store's ``write_lock``, so the save serializes with writers
        instead of racing them and its catalog is the saved epoch's.
        """
        target = self.path if path is None else os.fspath(path)
        if target == self.path and not full:
            self._wal.sync()
            return {"sealed": True, "snapshot": self.path, "wal": self._wal.stats()}
        # Holding the write lock pins the epoch: writers queue behind
        # the save instead of aborting it (readers are unaffected).
        with self.store.write_lock:
            return save_snapshot(
                self.store,
                target,
                catalog=None,  # resolved to store.catalog() at this epoch
                include_catalog=include_catalog,
                overwrite=overwrite,
            )

    def compact(self) -> dict:
        """Fold the log into a new snapshot generation now
        (:func:`repro.storage.compact`); returns the new manifest."""
        manifest = compact(self.store)
        self.compactions += 1
        self.generation = manifest["generation"]
        return manifest

    def start_compactor(
        self, interval: float = 30.0, min_bytes: int = 1 << 20
    ) -> None:
        """Start the opt-in background compaction thread.

        Every ``interval`` seconds it runs a recovery probe and, if the
        log holds at least ``min_bytes`` of records, :meth:`compact`.
        Daemonized and stopped by :meth:`close`.
        """
        if self._compactor is not None:
            raise RuntimeError("compactor already running")

        def loop() -> None:
            while not self._compactor_stop.wait(interval):
                if self._wal.closed:
                    break
                # The compactor tick doubles as the degraded-mode
                # heartbeat: probe for recovery even when nothing is
                # worth compacting.
                self.maybe_probe()
                if self._wal.size_bytes - HEADER_BYTES < min_bytes:
                    continue
                try:
                    self.compact()
                except Exception:  # noqa: BLE001 - keep the thread alive
                    # Failed compactions leave the log intact (still
                    # fully recoverable); retry next tick.
                    continue

        self._compactor = threading.Thread(
            target=loop, name="repro-wal-compactor", daemon=True
        )
        self._compactor.start()

    @property
    def degraded(self) -> bool:
        """True from a failed append (:class:`~repro.errors.WalAppendError`:
        disk full, I/O error) until a probe or a later append succeeds.
        Reads keep serving throughout; only writes are refused."""
        return not self._wal.closed and self._wal.degraded

    def maybe_probe(self, force: bool = False) -> "bool | None":
        """While degraded, append a no-op record through the durable
        path, at most once per :attr:`PROBE_INTERVAL_SECONDS` unless
        ``force``; success clears degraded mode.

        Returns the probe's outcome, or ``None`` when none ran (healthy,
        closed or rate-limited). The health endpoint and the compactor
        tick call it, so recovery needs no traffic.
        """
        if not self.degraded:
            return None
        now = time.monotonic()
        with self._probe_lock:
            if not force and now - self._last_probe < self.PROBE_INTERVAL_SECONDS:
                return None
            self._last_probe = now
        try:
            ok = self._wal.probe()
        except WalError:
            # Closed under our feet (shutting down): no outcome.
            return None
        with self._probe_lock:
            self.probes["ok" if ok else "failed"] += 1
        return ok

    def stats(self) -> dict:
        """The log gauges plus compaction state (``/v1/stats`` ``wal``)."""
        stats = self._wal.stats()
        stats["compactions"] = self.compactions
        stats["compactor_running"] = self._compactor is not None
        stats["generation"] = self.generation
        return stats

    def close(self) -> None:
        """Stop the compactor, then seal, detach and close the log
        (idempotent)."""
        if self._compactor is not None:
            self._compactor_stop.set()
            self._compactor.join(timeout=30.0)
            self._compactor = None
        close_store(self.store)
