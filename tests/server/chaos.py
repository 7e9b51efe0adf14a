"""The chaos harness: seeded fault injection under closed-loop load.

Drives a real serving stack — a prefork pool or a single-process
WAL-backed server — with concurrent :class:`repro.client.ReproClient`
loops while a deterministic (seeded) injector schedules faults:

* ``kill``     — SIGKILL a live worker process,
* ``stop``     — SIGSTOP one (alive-but-hung; the watchdog's case),
* ``corrupt``  — install a corrupt snapshot generation via a real
  atomic symlink flip (the quarantine & rollback case),
* ``enospc``   — make the WAL's disk "fill up" mid-append
  (degraded-mode case, single-process scenario).

Every response is checked against a single-process oracle's row
fingerprint — a chaos run fails on *one* wrong answer. Transient
errors are allowed below an error budget because the client retries
them; a request counts as errored only when the retry budget is
exhausted. After the last fault the harness requires the stack to
prove recovery: a run of consecutive exact answers within a bounded
window.

Used by ``tests/server/test_chaos.py`` (the CI gate) and by
``benchmarks/bench_http_throughput.py --chaos`` (the same scenarios at
benchmark scale). Artifacts — the event journal and a final metrics
snapshot — are written to ``CHAOS_ARTIFACT_DIR`` when set.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import threading
import time

from repro.client import ClientError, ReproClient
from repro.errors import WalAppendError
from repro.graph.builder import GraphBuilder
from repro.query.parser import parse_query
from repro.server import serve_in_background
from repro.server.prefork import PreforkServer
from repro.service import QueryService
from repro.storage import save_snapshot

from faults import ENOSPCHandle, bit_flip

SPARQL = "select ?a, ?b where { ?a knows ?b }"

#: Recovery must be proven within this many seconds of the last fault.
RECOVERY_SECONDS = 10.0

#: Consecutive exact answers that count as "recovered".
RECOVERY_STREAK = 20


def build_chain_snapshot(snap, n_edges: int = 8) -> None:
    """A small chain graph snapshot every scenario serves."""
    builder = GraphBuilder()
    for i in range(n_edges):
        builder.edge(f"p{i}", "knows", f"p{i + 1}")
    save_snapshot(builder.build(freeze=True), snap, generation=1)


def oracle_rows(snap) -> tuple:
    """The single-process ground truth every response must match."""
    with QueryService.from_snapshot(snap) as oracle:
        rows = oracle.evaluate(parse_query(SPARQL)).decoded_rows(
            oracle.store.dictionary
        )
    return tuple(sorted(tuple(row) for row in rows))


class Journal:
    """Timestamped, thread-safe chaos event log (the run's flight
    recorder — written out as a CI artifact)."""

    def __init__(self):
        self._t0 = time.monotonic()
        self._lock = threading.Lock()
        self.events: list = []

    def log(self, event: str, **detail) -> None:
        entry = {"t": round(time.monotonic() - self._t0, 4), "event": event}
        entry.update(detail)
        with self._lock:
            self.events.append(entry)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.events, handle, indent=2)
            handle.write("\n")


def _artifact_dir(explicit) -> "str | None":
    directory = explicit or os.environ.get("CHAOS_ARTIFACT_DIR")
    if directory:
        os.makedirs(directory, exist_ok=True)
    return directory or None


class _LoadGenerator:
    """Closed-loop query clients with exact-answer checking."""

    def __init__(self, address, expected_key, journal, *, clients: int,
                 seed: int):
        self.address = address
        self.expected = expected_key
        self.journal = journal
        self.n_clients = clients
        self.seed = seed
        self.stop = threading.Event()
        self._lock = threading.Lock()
        self.ok = 0
        self.wrong = 0
        self.errors = 0
        self.retries = 0
        self._threads: list = []

    def _loop(self, index: int) -> None:
        host, port = self.address
        client = ReproClient(
            host,
            port,
            retries=6,
            retry_budget_seconds=8.0,
            backoff_base=0.05,
            backoff_cap=0.5,
            timeout=2.0,
            seed=self.seed * 1000 + index,
        )
        while not self.stop.is_set():
            try:
                response = client.post_json(
                    "/v1/query", {"sparql": SPARQL, "limit": None}
                )
            except ClientError as exc:
                with self._lock:
                    self.errors += 1
                self.journal.log(
                    "client_giveup", client=index, error=str(exc)
                )
                continue
            if response.status != 200:
                with self._lock:
                    self.errors += 1
                self.journal.log(
                    "client_http_error", client=index,
                    status=response.status,
                )
                continue
            rows = tuple(
                sorted(
                    tuple(row)
                    for row in response.json()["result"]["rows"]
                )
            )
            with self._lock:
                if rows == self.expected:
                    self.ok += 1
                else:
                    self.wrong += 1
                    self.journal.log(
                        "wrong_answer",
                        client=index,
                        got=len(rows),
                        expected=len(self.expected),
                    )
        with self._lock:
            self.retries += client.retries_performed

    def start(self) -> None:
        self._threads = [
            threading.Thread(target=self._loop, args=(i,), daemon=True)
            for i in range(self.n_clients)
        ]
        for thread in self._threads:
            thread.start()

    def finish(self) -> dict:
        self.stop.set()
        for thread in self._threads:
            thread.join(timeout=30)
        attempts = self.ok + self.wrong + self.errors
        return {
            "requests": attempts,
            "ok": self.ok,
            "wrong": self.wrong,
            "errors": self.errors,
            "client_retries": self.retries,
            "error_rate": (self.errors / attempts) if attempts else 0.0,
        }


def install_corrupt_generation(snap, tag: str) -> str:
    """A real atomic install whose payload bytes are corrupt.

    Copies the live payload next door, flips one byte in a segment
    file (the snapshot checksums catch it at open), and flips the
    symlink — leaving the previous payload intact, so rollback is
    possible. Returns the bad generation's token.
    """
    snap = os.fspath(snap)
    parent = os.path.dirname(snap)
    good_payload = os.path.basename(os.readlink(snap))
    bad_payload = f"{os.path.basename(snap)}.data-chaos-{tag}"
    shutil.copytree(
        os.path.join(parent, good_payload), os.path.join(parent, bad_payload)
    )
    segments_dir = os.path.join(parent, bad_payload, "segments")
    segment = os.path.join(
        segments_dir, sorted(os.listdir(segments_dir))[0]
    )
    bit_flip(segment, -1)
    tmp = snap + f".chaos-link-{tag}"
    os.symlink(bad_payload, tmp)
    os.replace(tmp, snap)
    return "link:" + bad_payload


def _prove_recovery(address, expected_key, journal, extra=None) -> bool:
    """A streak of consecutive exact answers — plus any ``extra``
    structural predicate (e.g. "every worker slot repopulated") —
    within the recovery window."""
    host, port = address
    client = ReproClient(
        host, port, retries=3, retry_budget_seconds=2.0,
        backoff_base=0.05, timeout=2.0, seed=99,
    )
    deadline = time.monotonic() + RECOVERY_SECONDS
    streak = 0
    while time.monotonic() < deadline:
        if extra is not None and not extra():
            streak = 0
            time.sleep(0.05)
            continue
        try:
            response = client.post_json(
                "/v1/query", {"sparql": SPARQL, "limit": None}
            )
        except ClientError:
            streak = 0
            continue
        rows = tuple(
            sorted(tuple(r) for r in response.json()["result"]["rows"])
        )
        if response.status == 200 and rows == expected_key:
            streak += 1
            if streak >= RECOVERY_STREAK:
                journal.log("recovered", streak=streak)
                return True
        else:
            streak = 0
    journal.log("recovery_timeout", streak=streak)
    return False


def run_pool_chaos(
    snap,
    *,
    seed: int = 1,
    workers: int = 2,
    clients: int = 3,
    faults: "tuple | list" = ("kill", "stop", "corrupt"),
    fault_gap: float = 1.4,
    artifact_dir=None,
) -> dict:
    """SIGKILL / SIGSTOP / corrupt-install chaos against a prefork pool.

    Builds the snapshot if needed, runs closed-loop clients, injects
    each fault in a seeded order with ``fault_gap`` seconds between
    them, then requires full recovery. Returns the summary dict the
    tests and the benchmark gate assert on.
    """
    snap = os.fspath(snap)
    if not os.path.exists(snap):
        build_chain_snapshot(snap)
    expected = oracle_rows(snap)
    journal = Journal()
    rng = random.Random(seed)
    schedule = list(faults)
    rng.shuffle(schedule)
    journal.log("start", scenario="pool", seed=seed, schedule=schedule)

    summary: dict = {}
    with PreforkServer(
        snap,
        workers=workers,
        watch_interval=0.1,
        watchdog_interval=0.4,
        watchdog_timeout=1.0,
    ) as pool:
        load = _LoadGenerator(
            pool.address, expected, journal, clients=clients, seed=seed
        )
        load.start()
        time.sleep(0.5)  # a healthy baseline before the first fault

        for n, fault in enumerate(schedule):
            alive = [s for s in pool._slots if s.alive]
            if fault == "kill" and alive:
                victim = rng.choice(alive).proc.pid
                journal.log("inject_kill", pid=victim)
                os.kill(victim, signal.SIGKILL)
            elif fault == "stop" and alive:
                victim = rng.choice(alive).proc.pid
                journal.log("inject_stop", pid=victim)
                os.kill(victim, signal.SIGSTOP)
            elif fault == "corrupt":
                token = install_corrupt_generation(snap, str(n))
                journal.log("inject_corrupt_install", token=token)
            time.sleep(fault_gap)

        recovered = _prove_recovery(
            pool.address,
            expected,
            journal,
            extra=lambda: sum(1 for s in pool._slots if s.alive) == workers,
        )
        summary = load.finish()
        stats = pool.pool_stats()
        summary.update(
            recovered=recovered,
            watchdog_kills=stats["pool"]["watchdog_kills"],
            restarts=stats["pool"]["restarts"],
            reload_failures=stats["pool"]["reload_failures"],
            rollbacks=stats["pool"]["rollbacks"],
            quarantined=stats["pool"]["quarantined"],
            alive=stats["pool"]["alive"],
            workers=workers,
            schedule=schedule,
        )
        journal.log(
            "end", **{k: summary[k] for k in ("ok", "wrong", "errors")}
        )
        directory = _artifact_dir(artifact_dir)
        if directory:
            journal.dump(os.path.join(directory, "chaos_pool_events.json"))
            with open(
                os.path.join(directory, "chaos_pool_metrics.prom"),
                "w",
                encoding="utf-8",
            ) as handle:
                handle.write(pool.metrics_text())
    return summary


def run_enospc_chaos(
    snap,
    *,
    seed: int = 1,
    clients: int = 2,
    degraded_seconds: float = 1.5,
    artifact_dir=None,
) -> dict:
    """Disk-full chaos against a single-process WAL-backed server.

    While the (injected) disk is full: acknowledged writes fail
    loudly, reads keep answering exactly, and health reports
    ``degraded``. Once space returns the WAL probe recovers the
    service without a restart, and writes land again.
    """
    snap = os.fspath(snap)
    if not os.path.exists(snap):
        build_chain_snapshot(snap)
    expected = oracle_rows(snap)
    journal = Journal()
    journal.log("start", scenario="enospc", seed=seed)

    service = QueryService.from_snapshot(snap, wal=True)
    service.durable.PROBE_INTERVAL_SECONDS = 0.1
    disk = ENOSPCHandle(service.store.write_log.wal._handle)
    service.store.write_log.wal._handle = disk
    degraded_seen = False
    writes_refused = 0
    try:
        with serve_in_background(service) as handle:
            load = _LoadGenerator(
                handle.address, expected, journal, clients=clients,
                seed=seed,
            )
            load.start()
            host, port = handle.address
            probe = ReproClient(
                host, port, retries=0, timeout=2.0, seed=seed
            )
            time.sleep(0.4)

            journal.log("inject_enospc")
            disk.arm()
            deadline = time.monotonic() + degraded_seconds
            while time.monotonic() < deadline:
                try:
                    # A predicate the load's query doesn't match — a
                    # landed write must never change the oracle answer.
                    service.store.add_term_triples(
                        [("chaos", "wrote", "nobody")]
                    )
                except WalAppendError:
                    writes_refused += 1
                health = probe.health().json()
                if health["status"] == "degraded":
                    degraded_seen = True
                time.sleep(0.1)
            journal.log(
                "clear_enospc",
                writes_refused=writes_refused,
                degraded_seen=degraded_seen,
            )
            disk.disarm()

            # Health polling is the recovery heartbeat.
            recover_deadline = time.monotonic() + RECOVERY_SECONDS
            healthy = False
            while time.monotonic() < recover_deadline:
                if probe.health().json()["status"] == "ok":
                    healthy = True
                    break
                time.sleep(0.1)
            write_ok = False
            if healthy:
                service.store.add_term_triples(
                    [("chaos", "wrote", "recovery")]
                )
                write_ok = True
            journal.log("recovered" if healthy else "recovery_timeout")
            summary = load.finish()
            journal.log(
                "end",
                **{k: summary[k] for k in ("ok", "wrong", "errors")},
            )
            directory = _artifact_dir(artifact_dir)
            if directory:
                journal.dump(
                    os.path.join(directory, "chaos_enospc_events.json")
                )
                from _http_client import Client

                raw = Client(handle.address)
                try:
                    _s, text, _h = raw.get_text("/metrics")
                finally:
                    raw.close()
                with open(
                    os.path.join(directory, "chaos_enospc_metrics.prom"),
                    "w",
                    encoding="utf-8",
                ) as out:
                    out.write(text)
    finally:
        service.close()
    summary.update(
        recovered=healthy,
        write_after_recovery=write_ok,
        writes_refused=writes_refused,
        degraded_seen=degraded_seen,
    )
    return summary
