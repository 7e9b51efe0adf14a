"""Prefork multi-process serving over shared mmap snapshots.

The architectural step past the GIL: a parent **dispatcher**
(:class:`PreforkServer`) binds the listening TCP socket once, then
spawns N **worker** processes that each warm-start a read-only
:class:`~repro.service.QueryService` over the *same* snapshot
generation (``QueryService.from_snapshot`` — zero-copy mmap, so the
page cache holds one physical copy of the store no matter how many
workers map it) and accept connections straight off the shared socket.
Accept distribution is kernel-level: every worker inherits the
listening fd at spawn, all of them sit in ``accept`` on the same
queue, and no request is ever proxied through the parent.

Control plane — one socket pair per worker, JSON lines. The worker
inherits the listening socket and its end of the pair at spawn, with
its configuration on the command line, so the channel opens with::

    worker → parent   {"type": "ready", "generation": ...}
    parent → worker   {"type": "reload"}          # new generation
    worker → parent   {"type": "reloaded", ...}   # after swap + drain
    worker → parent   {"type": "reload_failed", "error": ..., "token": ...}
    parent → worker   {"type": "ping"}            # watchdog liveness probe
    worker → parent   {"type": "pong", ...}       # proves the event loop runs
    parent → worker   {"type": "stats"}
    worker → parent   {"type": "stats", "data": ...}
    parent → worker   {"type": "shutdown"}        # graceful drain + exit

Workers exit on control-socket EOF, so a dying dispatcher never leaves
orphans. The dispatcher supervises: a crashed worker is respawned
(with an exponential restart-storm backoff that resets once a worker
stays healthy), and per-worker gauges are aggregated into a pool-level
view (:meth:`PreforkServer.pool_stats`).

**Live snapshot handoff**: the dispatcher polls the snapshot path with
:class:`~repro.storage.generations.SnapshotWatcher` (one ``readlink``
per tick). When the compactor installs generation N+1 via the atomic
symlink flip, workers are told to reload *one at a time* — each builds
a service over the new generation off the event loop, swaps it into
its HTTP server between requests
(:meth:`~repro.server.app.HTTPQueryServer.swap_service`), drains the
in-flight queries still leased to the old mmap, and closes the old
generation only after its last ``EngineResult`` was serialized. The
rest of the pool keeps serving throughout, so compaction never drops
or blocks traffic.

**Defense in depth** (the resilience layer): a worker that cannot
*open* a newly installed generation (checksum mismatch, mmap failure)
keeps serving its old service and answers ``reload_failed``; the
dispatcher aborts the rolling reload and has its watcher reject the
generation (:meth:`repro.storage.generations.SnapshotWatcher.reject`:
a quarantine marker on disk — the watcher stops re-offering it, the
compactor stops truncating the WAL — then a rollback of the symlink to
the last pool-adopted payload when it still exists), so a corrupt
install can never crash-loop the pool. A **watchdog** periodically
pings each worker over the control channel; because the reply is
written by the worker's event loop, a worker that is alive-but-hung
(stuck loop, ``SIGSTOP``, dead thread pool) misses the deadline, is
SIGKILLed, and respawns under the normal backoff.

Workers are spawned as ``python -m repro.server._prefork_worker``
subprocesses (never forked from a threaded parent), which keeps the
module import-safe under pytest and any embedding application; that
module is the worker program, this one the dispatcher.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import threading
import time

from repro.obs.exposition import CONTENT_TYPE, render_dump
from repro.obs.logging import JsonLogger
from repro.obs.metrics import MetricsRegistry, aggregate_dumps
from repro.server.http import (
    MAX_HEAD_BYTES,
    LoopThread,
    read_request,
    render_response,
)
from repro.server.wire import WireError, error_payload, map_exception
from repro.storage.generations import (
    SnapshotWatcher,
    generation_token,
    is_quarantined,
    quarantined,
)
from repro.utils import domains

__all__ = ["PreforkServer", "serve_prefork"]

#: Spawn / RPC timeout for a healthy worker (seconds). Reloads get
#: their own, longer budget — building a service can dwarf an RPC.
CONTROL_TIMEOUT = 60.0

#: How long a reload RPC may take end to end (load + swap + drain).
RELOAD_TIMEOUT = 300.0

#: Restart-storm control: the k-th consecutive respawn of a slot waits
#: ``min(BACKOFF_CAP, BACKOFF_BASE * 2**(k-1))`` seconds; the count
#: resets once a worker has stayed up ``HEALTHY_SECONDS``.
BACKOFF_BASE = 0.1
BACKOFF_CAP = 5.0
HEALTHY_SECONDS = 5.0


def _send_line(sock_file, message: dict) -> None:
    """Write one JSON control line and flush it."""
    sock_file.write(json.dumps(message).encode("utf-8") + b"\n")
    sock_file.flush()


class _WorkerSlot:
    """One supervised worker: its process, control channel, and health."""

    def __init__(self, index: int):
        self.index = index
        self.proc: "subprocess.Popen | None" = None
        self.conn: "socket.socket | None" = None
        self.file = None
        self.lock = threading.Lock()
        self.started_at = 0.0
        self.failures = 0
        self.generation = None
        #: Set by ``_rpc_locked`` whenever its error path SIGKILLed the
        #: process — lets the watchdog distinguish "I killed a hung
        #: worker" from "it was already a corpse".
        self.last_rpc_killed = False

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def close_channel(self) -> None:
        """Drop the control connection (idempotent)."""
        for resource in (self.file, self.conn):
            if resource is not None:
                try:
                    resource.close()
                except OSError:
                    pass
        self.file = None
        self.conn = None


class PreforkServer:
    """A dispatcher plus N worker processes over one shared snapshot.

    Parameters
    ----------
    snapshot:
        Path of the snapshot the pool serves. Workers open it with
        ``QueryService.from_snapshot`` (no WAL, so ``read_only``); the
        dispatcher watches it for newly installed generations.
    workers:
        Number of worker processes, at most ``MAX_WORKERS``
        (:mod:`repro.utils.domains`), as is ``threads``.
    host / port:
        Bind address of the shared listening socket (``port=0`` picks
        an ephemeral port; see :attr:`address` after :meth:`start`).
    backend / threads:
        Forwarded to each worker's ``from_snapshot`` (``threads`` is
        the per-worker service pool width, ``max_workers``), which
        always verifies the snapshot.
    server_options / service_options:
        Keyword dicts forwarded to each worker's
        :class:`~repro.server.app.HTTPQueryServer` / service.
    auto_reload:
        Poll for new generations and hand workers off automatically
        (disable to drive :meth:`reload` yourself).
    watch_interval:
        Supervision tick in seconds (crash detection + snapshot poll).
        A crashed worker is respawned under the restart-storm backoff
        of :data:`BACKOFF_BASE`, :data:`BACKOFF_CAP` and
        :data:`HEALTHY_SECONDS`.
    watchdog_interval / watchdog_timeout:
        Stuck-worker detection: every ``watchdog_interval`` seconds the
        supervisor pings each idle worker over its control channel and
        SIGKILLs any that does not pong within ``watchdog_timeout``
        (the reply is written by the worker's event loop, so a hung
        loop — ``SIGSTOP``, a wedged thread — misses the deadline even
        though the process is alive). The kill feeds the normal respawn
        backoff. ``watchdog_interval=None`` disables the probe.
        A worker's reload RPC (load + swap + drain) has
        :data:`RELOAD_TIMEOUT` seconds instead.
    metrics_port:
        When set, the dispatcher serves ``GET /metrics`` on
        ``(host, metrics_port)`` — pool-level gauges plus every
        worker's registries, aggregated over the control-channel
        ``stats`` RPC. (The dispatcher never answers on the shared
        serving port itself, so aggregation needs its own listener;
        each worker still serves its own per-process ``/metrics``.)
        Any other request gets the workers' JSON error envelope.
    log_json:
        JSON-lines lifecycle logging on stderr, dispatcher and workers
        alike: pool start/stop, worker spawn/respawn, handoffs.
    """

    def __init__(
        self,
        snapshot,
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        backend: "str | None" = None,
        threads: "int | None" = None,
        server_options: "dict | None" = None,
        service_options: "dict | None" = None,
        auto_reload: bool = True,
        watch_interval: float = 0.25,
        watchdog_interval: "float | None" = 10.0,
        watchdog_timeout: float = 5.0,
        metrics_port: "int | None" = None,
        log_json: bool = False,
    ):
        self.snapshot = os.fspath(snapshot)
        self.workers = domains.workers(workers, "workers")
        self.host = host
        self.port = port
        self.backend = backend
        self.threads = threads if threads is None else domains.workers(threads, "threads")
        self.server_options = dict(server_options or {})
        self.service_options = dict(service_options or {})
        self.auto_reload = auto_reload
        self.watch_interval = watch_interval
        self.watchdog_interval = watchdog_interval
        # Above TIMEOUT_MAX, socket.settimeout overflows in the probe.
        self.watchdog_timeout = domains.seconds(watchdog_timeout, "watchdog_timeout")
        self._slots = [_WorkerSlot(i) for i in range(self.workers)]
        self._listen_sock: "socket.socket | None" = None
        self._watcher: "SnapshotWatcher | None" = None
        self._stop = threading.Event()
        self._supervisor: "threading.Thread | None" = None
        self._reload_lock = threading.Lock()
        self._started = False
        self._restarts = 0
        self._handoffs = 0
        self._watchdog_kills = 0
        self._rollbacks = 0
        self._reload_failures = 0
        self._last_watchdog = 0.0
        self.metrics_port = metrics_port
        self.log_json = log_json
        self.logger = (
            JsonLogger().bind(role="dispatcher") if log_json else None
        )
        self._metrics: "LoopThread | None" = None
        self.metrics = MetricsRegistry()
        self.metrics.callback(
            "repro_pool_workers",
            "Configured worker-process count.",
            lambda: self.workers,
        )
        self.metrics.callback(
            "repro_pool_workers_alive",
            "Worker processes currently alive.",
            lambda: sum(1 for s in self._slots if s.alive),
        )
        self.metrics.callback(
            "repro_pool_restarts_total",
            "Crashed workers respawned by the supervisor.",
            lambda: self._restarts,
            kind="counter",
        )
        self.metrics.callback(
            "repro_pool_handoffs_total",
            "Rolling snapshot handoffs performed across the pool.",
            lambda: self._handoffs,
            kind="counter",
        )
        self.metrics.callback(
            "repro_pool_watchdog_kills_total",
            "Alive-but-hung workers SIGKILLed by the watchdog.",
            lambda: self._watchdog_kills,
            kind="counter",
        )
        self.metrics.callback(
            "repro_pool_reload_failures_total",
            "Worker reloads that failed to open a new generation.",
            lambda: self._reload_failures,
            kind="counter",
        )
        self.metrics.callback(
            "repro_pool_rollbacks_total",
            "Generation rollbacks after a quarantined install.",
            lambda: self._rollbacks,
            kind="counter",
        )
        self.metrics.callback(
            "repro_pool_quarantined_generations",
            "Snapshot generations currently quarantined on disk.",
            lambda: len(quarantined(self.snapshot)),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` of the shared listening socket."""
        if self._listen_sock is None:
            return (self.host, self.port)
        host, port = self._listen_sock.getsockname()[:2]
        return (host, port)

    @property
    def url(self) -> str:
        """Base URL of the pool, e.g. ``http://127.0.0.1:8123``."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> tuple[str, int]:
        """Bind the shared socket, spawn every worker, begin supervising.

        Returns the bound address once all workers reported ready —
        from that moment any of them can answer on it.
        """
        if self._started:
            raise RuntimeError("PreforkServer already started")
        self._listen_sock = socket.create_server(
            (self.host, self.port), backlog=128, reuse_port=False
        )
        try:
            for slot in self._slots:
                self._spawn(slot)
        except BaseException:
            self.stop(drain_timeout=1.0)
            raise
        # Every worker has just opened the current generation, so the
        # watcher counts it as adopted.
        self._watcher = SnapshotWatcher(self.snapshot)
        self._last_watchdog = time.monotonic()
        self._started = True
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-prefork-supervisor", daemon=True
        )
        self._supervisor.start()
        if self.metrics_port is not None:
            self._start_metrics_listener()
        if self.logger is not None:
            host, port = self.address
            self.logger.log(
                "pool_start",
                host=host,
                port=port,
                workers=self.workers,
                snapshot=self.snapshot,
                metrics_port=self._metrics.address[1] if self._metrics else None,
            )
        return self.address

    def stop(self, drain_timeout: float = 30.0) -> None:
        """Gracefully stop the pool: drain workers, then tear down.

        Each worker gets a ``shutdown`` message (graceful in-flight
        drain); one that does not exit within ``drain_timeout`` seconds
        is killed. Idempotent.
        """
        self._stop.set()
        if self._metrics is not None:
            self._metrics.shutdown(timeout=CONTROL_TIMEOUT)
            self._metrics = None
        if self._supervisor is not None:
            self._supervisor.join(timeout=CONTROL_TIMEOUT)
            self._supervisor = None
        for slot in self._slots:
            if slot.alive and slot.file is not None:
                with slot.lock:
                    try:
                        _send_line(slot.file, {"type": "shutdown"})
                    except OSError:
                        pass
        deadline = time.time() + drain_timeout
        for slot in self._slots:
            if slot.proc is None:
                continue
            remaining = max(0.1, deadline - time.time())
            try:
                slot.proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                slot.proc.kill()
                slot.proc.wait(timeout=CONTROL_TIMEOUT)
            slot.close_channel()
            slot.proc = None
        if self._listen_sock is not None:
            self._listen_sock.close()
            self._listen_sock = None
        if self._started and self.logger is not None:
            self.logger.log("pool_stop", restarts=self._restarts)
        self._started = False

    def __enter__(self) -> "PreforkServer":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Spawning + supervision
    # ------------------------------------------------------------------

    def _spawn(self, slot: _WorkerSlot) -> None:
        """Start one worker process and wait for its ``ready`` line.

        The worker inherits the listening socket and its end of a fresh
        socket pair, so its control channel is its own by construction.
        """
        slot.close_channel()
        # The worker must import the same repro package this dispatcher
        # runs from, whatever the parent's cwd-relative sys.path was.
        package_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing
            else package_root + os.pathsep + existing
        )
        config = {
            "snapshot": self.snapshot,
            "backend": self.backend,
            "threads": self.threads,
            "server_options": self.server_options,
            "service_options": self.service_options,
            "log_json": self.log_json,
        }
        listen_fd = self._listen_sock.fileno()
        conn, child_end = socket.socketpair()
        conn.settimeout(CONTROL_TIMEOUT)
        file = conn.makefile("rwb")
        try:
            # Only the child keeps its end: its exit is EOF here, and
            # this dispatcher's death is EOF there.
            with child_end:
                control_fd = child_end.fileno()
                slot.proc = subprocess.Popen(
                    [sys.executable, "-m", "repro.server._prefork_worker",
                     "--listen-fd", str(listen_fd),
                     "--control-fd", str(control_fd),
                     "--worker-id", str(slot.index),
                     "--config", json.dumps(config)],
                    pass_fds=(listen_fd, control_fd),
                    stdin=subprocess.DEVNULL,
                    env=env,
                )
            line = file.readline()
            ready = json.loads(line) if line else None
            if not isinstance(ready, dict) or ready.get("type") != "ready":
                raise ConnectionError(f"worker never became ready: {line!r}")
        except BaseException:
            file.close()
            conn.close()
            if slot.proc is not None and slot.proc.poll() is None:
                slot.proc.kill()
                slot.proc.wait(timeout=CONTROL_TIMEOUT)
            raise
        slot.conn = conn
        slot.file = file
        slot.started_at = time.time()
        slot.generation = ready.get("generation")
        if self.logger is not None:
            self.logger.log(
                "worker_spawn",
                worker=slot.index,
                pid=slot.proc.pid,
                generation=slot.generation,
            )

    def _supervise(self) -> None:
        """Respawn crashed workers; watch the snapshot for handoffs."""
        while not self._stop.wait(self.watch_interval):
            for slot in self._slots:
                if self._stop.is_set():
                    return
                if slot.proc is not None and slot.proc.poll() is not None:
                    self._respawn(slot)
            if self.auto_reload and self._watcher.poll():
                try:
                    self.reload()
                except Exception as exc:  # noqa: BLE001 — keep supervising
                    print(
                        f"repro.prefork: handoff failed: {exc}",
                        file=sys.stderr,
                    )
            if (
                self.watchdog_interval is not None
                and time.monotonic() - self._last_watchdog
                >= self.watchdog_interval
            ):
                self._last_watchdog = time.monotonic()
                self._watchdog_probe()

    def _respawn(self, slot: _WorkerSlot) -> None:
        """Replace one dead worker, with restart-storm backoff."""
        if self.logger is not None:
            self.logger.log(
                "worker_exit",
                worker=slot.index,
                returncode=(
                    slot.proc.returncode if slot.proc is not None else None
                ),
            )
        if time.time() - slot.started_at > HEALTHY_SECONDS:
            slot.failures = 0
        delay = min(BACKOFF_CAP, BACKOFF_BASE * (2**slot.failures))
        slot.failures += 1
        slot.close_channel()
        if self._stop.wait(delay):
            return
        try:
            self._spawn(slot)
        except Exception as exc:  # noqa: BLE001 — retried next tick
            print(
                f"repro.prefork: respawn of worker {slot.index} failed: {exc}",
                file=sys.stderr,
            )
            return
        self._restarts += 1

    # ------------------------------------------------------------------
    # Control-plane RPCs
    # ------------------------------------------------------------------

    def _rpc(self, slot: _WorkerSlot, message: dict,
             timeout: float = CONTROL_TIMEOUT) -> "dict | None":
        """One request/response on a worker's control channel.

        Returns ``None`` when the worker is unreachable (dead, hung
        past ``timeout``, or mid-respawn) — the supervisor deals with
        the corpse; callers just skip it.
        """
        with slot.lock:
            return self._rpc_locked(slot, message, timeout)

    def _rpc_locked(self, slot: _WorkerSlot, message: dict,
                    timeout: float) -> "dict | None":
        """The body of :meth:`_rpc`; caller must hold ``slot.lock``."""
        slot.last_rpc_killed = False
        if slot.file is None or not slot.alive:
            return None
        try:
            slot.conn.settimeout(timeout)
            _send_line(slot.file, message)
            line = slot.file.readline()
            if not line:
                raise ConnectionError("control EOF")
            return json.loads(line)
        except (OSError, ValueError, ConnectionError):
            # A worker that cannot answer its control channel is
            # sick: kill it so supervision respawns a fresh one.
            slot.close_channel()
            if slot.proc is not None and slot.proc.poll() is None:
                slot.proc.kill()
                slot.last_rpc_killed = True
            return None

    def _watchdog_probe(self) -> None:
        """Ping every idle worker; SIGKILL any that is alive but hung.

        A ``pong`` is written by the worker's event loop, so it proves
        the loop still schedules work — a process that exists but never
        answers (``SIGSTOP``'d, stuck in a wedged loop) times out, gets
        killed here, and is respawned by the next supervision tick
        under the normal backoff. Slots whose control lock is busy are
        skipped: they are mid-reload-RPC, which carries its own
        timeout.
        """
        for slot in self._slots:
            if self._stop.is_set():
                return
            if not slot.alive or slot.file is None:
                continue
            if not slot.lock.acquire(blocking=False):
                continue
            try:
                reply = self._rpc_locked(
                    slot, {"type": "ping"}, self.watchdog_timeout
                )
                killed = reply is None and slot.last_rpc_killed
            finally:
                slot.lock.release()
            if killed:
                self._watchdog_kills += 1
                if self.logger is not None:
                    self.logger.log(
                        "watchdog_kill",
                        worker=slot.index,
                        timeout_seconds=self.watchdog_timeout,
                        kills=self._watchdog_kills,
                    )

    def reload(self) -> dict:
        """Hand every worker off to the latest snapshot generation.

        Rolling, one worker at a time: the rest of the pool keeps
        answering on the old generation while each worker rebuilds,
        swaps, and drains — zero dropped requests by construction.
        Returns ``{worker_index: generation | None}``.
        """
        outcome: dict = {}
        with self._reload_lock:
            offered = generation_token(self.snapshot)
            if offered is not None and is_quarantined(self.snapshot, offered):
                # Never re-offer a generation already known to be bad —
                # this is what breaks the crash/retry loop a corrupt
                # install would otherwise cause.
                if self.logger is not None:
                    self.logger.log(
                        "reload_skipped_quarantined", token=offered
                    )
                return {slot.index: None for slot in self._slots}
            adopted_all = True
            aborted = False
            for slot in self._slots:
                if aborted:
                    # A quarantined install must not be offered to the
                    # remaining workers.
                    outcome[slot.index] = None
                    continue
                reply = self._rpc(
                    slot, {"type": "reload"}, timeout=RELOAD_TIMEOUT
                )
                if reply is not None and reply.get("type") == "reloaded":
                    slot.generation = reply.get("generation")
                    outcome[slot.index] = slot.generation
                elif reply is not None and reply.get("type") == "reload_failed":
                    outcome[slot.index] = None
                    adopted_all = False
                    aborted = True
                    self._reload_failures += 1
                    bad = reply.get("token") or offered
                    if bad is not None:
                        self._reject(bad, reply.get("error", ""))
                else:
                    # Unreachable worker (dead or hung): the supervisor
                    # respawns it against the current generation.
                    outcome[slot.index] = None
                    adopted_all = False
            if adopted_all and offered is not None:
                cleared = self._watcher.adopt(offered)
                if cleared and self.logger is not None:
                    self.logger.log(
                        "quarantine_cleared", token=offered, markers=cleared
                    )
            self._handoffs += 1
        if self.logger is not None:
            self.logger.log(
                "handoff",
                handoffs=self._handoffs,
                generations={str(k): v for k, v in outcome.items()},
            )
        return outcome

    def _reject(self, token: str, reason: str) -> None:
        """Count, log and report what the watcher's
        :meth:`~repro.storage.generations.SnapshotWatcher.reject` did
        with a generation a worker could not open."""
        good = self._watcher.adopted
        marked, rolled_back, errors = self._watcher.reject(token, reason)
        for error in errors:  # disk trouble: degrade, don't die
            print(f"repro.prefork: {error}", file=sys.stderr)
        self._rollbacks += rolled_back
        if self.logger is not None:
            if marked:
                self.logger.log("generation_quarantined", token=token, reason=reason)
            if rolled_back:
                self.logger.log("generation_rollback", to=good, quarantined=token)

    def _worker_stats(self):
        """One ``stats`` RPC per slot, yielding ``(slot, data)``; ``data``
        is ``None`` for a worker that did not answer."""
        for slot in self._slots:
            reply = self._rpc(slot, {"type": "stats"})
            ok = reply is not None and reply.get("type") == "stats"
            yield slot, (reply["data"] if ok else None)

    def pool_stats(self) -> dict:
        """Aggregate per-worker gauges into the pool-level view.

        Unreachable workers appear with ``"alive": False`` and no
        gauges — the pool view never blocks on a corpse.
        """
        workers = []
        in_flight = 0
        requests = 0
        generations = set()
        for slot, data in self._worker_stats():
            entry: dict = {
                "index": slot.index,
                "alive": slot.alive,
                "pid": slot.proc.pid if slot.proc is not None else None,
            }
            if data is not None:
                entry.update(data["worker"])
                entry["http"] = data["http"]
                in_flight += data["http"]["in_flight"]
                requests += data["http"]["requests"]
                if data["worker"]["generation"] is not None:
                    generations.add(data["worker"]["generation"])
            workers.append(entry)
        return {
            "pool": {
                "workers": self.workers,
                "alive": sum(1 for s in self._slots if s.alive),
                "restarts": self._restarts,
                "handoffs": self._handoffs,
                "watchdog_kills": self._watchdog_kills,
                "reload_failures": self._reload_failures,
                "rollbacks": self._rollbacks,
                "in_flight": in_flight,
                "requests": requests,
                "generations": sorted(generations),
                "adopted_token": self._watcher.adopted if self._watcher else None,
                "quarantined": [
                    entry.get("token") for entry in quarantined(self.snapshot)
                ],
                "snapshot": {
                    "path": self.snapshot,
                    "token": generation_token(self.snapshot),
                },
            },
            "workers": workers,
        }

    # ------------------------------------------------------------------
    # Aggregated /metrics
    # ------------------------------------------------------------------

    @property
    def metrics_address(self) -> "tuple[str, int] | None":
        """Bound ``(host, port)`` of the dispatcher's metrics listener."""
        return None if self._metrics is None else self._metrics.address

    def metrics_text(self) -> str:
        """One exposition document for the whole pool.

        Pool-level gauges (``repro_pool_*``) plus every reachable
        worker's registries, fetched over the control-channel ``stats``
        RPC and folded together: counters and histogram buckets sum,
        gauges fold by their aggregation hint (queue depths sum, the
        snapshot generation takes the max). Unreachable workers are
        skipped — a scrape never blocks on a corpse.
        """
        worker_dumps = [
            data["metrics"]
            for _slot, data in self._worker_stats()
            if data is not None and data.get("metrics")
        ]
        aggregated = aggregate_dumps(worker_dumps) if worker_dumps else []
        return render_dump(self.metrics.dump() + aggregated)

    def _start_metrics_listener(self) -> None:
        """Serve ``GET /metrics`` from the dispatcher on its own port.

        The shared serving port belongs to the workers (the dispatcher
        never accepts on it), so aggregation gets its own listener: the
        workers' HTTP transport (:mod:`repro.server.http`) on a
        :class:`~repro.server.http.LoopThread`.
        """
        listener = None

        async def start():
            nonlocal listener
            listener = await asyncio.start_server(
                self._answer_scrape, self.host, self.metrics_port
            )
            return listener.sockets[0].getsockname()[:2]

        async def shutdown():
            listener.close()

        self._metrics = LoopThread(
            start, shutdown, name="repro-prefork-metrics"
        )

    async def _answer_scrape(self, reader, writer) -> None:
        """Answer one request on the metrics port, then close.

        :meth:`metrics_text` blocks on worker RPCs, so it runs in the
        loop's executor.
        """
        try:
            # /metrics takes no body; a small one is read and ignored.
            request = await read_request(reader, MAX_HEAD_BYTES)
            if request is None:
                return
            if request.path != "/metrics":
                raise WireError("not_found", "only /metrics is served here",
                                status=404)
            if request.method != "GET":
                raise WireError("method_not_allowed", "only GET /metrics",
                                status=405)
            text = await asyncio.get_running_loop().run_in_executor(
                None, self.metrics_text
            )
            writer.write(render_response(
                200, text.encode("utf-8"), content_type=CONTENT_TYPE,
                keep_alive=False,
            ))
        except Exception as exc:  # noqa: BLE001 — report, not die
            status, code, message = map_exception(exc)
            if status == 500:
                print(f"repro.prefork: /metrics: {message}", file=sys.stderr)
            body = json.dumps(error_payload(code, message)).encode("utf-8")
            writer.write(render_response(status, body, keep_alive=False))
        finally:
            writer.close()  # after the buffered response is flushed


# ----------------------------------------------------------------------
# Blocking entry point (the CLI's ``repro serve --workers N``)
# ----------------------------------------------------------------------


def serve_prefork(
    snapshot,
    *,
    workers: int = 2,
    host: str = "127.0.0.1",
    port: int = 8080,
    on_ready=None,
    **pool_kwargs,
) -> None:
    """Run a prefork pool until SIGINT/SIGTERM; then drain and exit.

    The multi-process sibling of :func:`repro.server.app.serve`:
    ``on_ready`` (if given) is called with the bound address once every
    worker is accepting. Shutdown drains each worker gracefully.
    """
    import signal

    pool = PreforkServer(
        snapshot, workers=workers, host=host, port=port, **pool_kwargs
    )
    stop = threading.Event()

    def _on_signal(_signum, _frame):
        stop.set()

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _on_signal)
        except (ValueError, OSError):  # pragma: no cover — non-main thread
            pass
    try:
        address = pool.start()
        if on_ready is not None:
            on_ready(address)
        stop.wait()
    finally:
        pool.stop()
        for sig, handler in previous.items():
            signal.signal(sig, handler)

