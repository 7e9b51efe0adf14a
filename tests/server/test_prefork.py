"""The prefork worker pool: shared-socket serving, crash respawn,
pool-level stats, and the live snapshot handoff under load.

Every test here runs real worker *processes* spawned by a real
dispatcher over a real snapshot on disk — the same path
``repro serve --snapshot S --workers N`` takes. The handoff parity
test is the PR's acceptance gate: writes folded into generation N+1,
swapped in under sustained live load, with zero dropped or errored
requests and answers fingerprint-identical to a single-process oracle.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.graph.builder import GraphBuilder
from repro.server.prefork import PreforkServer
from repro.service import QueryService
from repro.storage import save_snapshot

from _http_client import Client

SPARQL = "select ?a, ?b where { ?a knows ?b }"


def _chain_store(n_edges: int):
    builder = GraphBuilder()
    for i in range(n_edges):
        builder.edge(f"p{i}", "knows", f"p{i + 1}")
    return builder.build(freeze=True)


def _wait_for(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(interval)


def _sorted_rows(payload) -> list:
    return sorted(tuple(row) for row in payload["result"]["rows"])


@pytest.fixture(scope="module")
def static_snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("prefork") / "snap"
    save_snapshot(_chain_store(12), path, generation=1)
    return path


@pytest.fixture(scope="module")
def pool(static_snapshot):
    with PreforkServer(
        static_snapshot, workers=2, watch_interval=0.1
    ) as running:
        yield running


# ----------------------------------------------------------------------
# Serving + stats aggregation
# ----------------------------------------------------------------------


def test_pool_serves_and_workers_report_gauges(pool):
    client = Client(pool.address)
    try:
        status, payload, _ = client.post(
            "/v1/query", {"sparql": SPARQL, "limit": None}
        )
        assert status == 200
        assert payload["result"]["count"] == 12

        status, stats, _ = client.get("/v1/stats")
        assert status == 200
        worker = stats["worker"]
        assert worker["id"] in (0, 1)
        assert worker["pid"] not in (None, os.getpid())
        assert worker["generation"] == 1
        assert worker["rss_bytes"] is None or worker["rss_bytes"] > 0
        # Workers are pure readers: the owner-side writer guard is on.
        assert stats["service"]["read_only"] is True
        assert stats["service"]["snapshot"]["generation"] == 1
    finally:
        client.close()


def test_pool_stats_aggregates_workers(pool):
    client = Client(pool.address)
    try:
        client.post("/v1/query", {"sparql": SPARQL})
    finally:
        client.close()
    stats = pool.pool_stats()
    assert stats["pool"]["workers"] == 2
    assert stats["pool"]["alive"] == 2
    assert stats["pool"]["requests"] >= 1
    assert stats["pool"]["generations"] == [1]
    assert stats["pool"]["snapshot"]["token"] is not None
    assert len(stats["workers"]) == 2
    for entry in stats["workers"]:
        assert entry["alive"] is True
        assert entry["http"]["requests"] >= 0


# ----------------------------------------------------------------------
# Worker-crash fault injection
# ----------------------------------------------------------------------


def test_killed_worker_is_respawned_and_requests_keep_succeeding(pool):
    # Pin a keep-alive connection to one worker and learn its pid.
    pinned = Client(pool.address)
    try:
        _status, stats, _ = pinned.get("/v1/stats")
        victim_pid = stats["worker"]["pid"]

        # Kill it mid-request: fire a query on the pinned connection
        # from a thread and SIGKILL the serving process.
        outcome: list = []

        def doomed_request():
            try:
                outcome.append(pinned.post("/v1/query", {"sparql": SPARQL}))
            except OSError as exc:
                outcome.append(exc)

        poster = threading.Thread(target=doomed_request)
        poster.start()
        os.kill(victim_pid, signal.SIGKILL)
        poster.join(timeout=30)
        assert outcome  # either an error or (rarely) a raced response
    finally:
        pinned.close()

    # Fresh connections keep being answered throughout (the surviving
    # worker holds the shared accept queue open).
    fresh = Client(pool.address)
    try:
        status, payload, _ = fresh.post("/v1/query", {"sparql": SPARQL})
        assert status == 200
        assert payload["result"]["count"] == 12
    finally:
        fresh.close()

    # The dispatcher notices the corpse and respawns the slot. (The
    # restarts gauge is bumped just after the spawn handshake, so it is
    # part of the wait, not a point-in-time assertion.)
    def recovered():
        stats = pool.pool_stats()
        pids = {w.get("pid") for w in stats["workers"] if w["alive"]}
        return (
            stats["pool"]["alive"] == 2
            and victim_pid not in pids
            and stats["pool"]["restarts"] >= 1
        )

    _wait_for(recovered)
    assert pool.pool_stats()["pool"]["generations"] == [1]


@pytest.mark.parametrize("timeout", [1e10, float("inf"), 0.0, -1.0, float("nan")])
def test_watchdog_timeout_must_be_what_a_socket_can_wait(timeout):
    """The watchdog's probe hands the timeout to ``socket.settimeout``,
    which overflows above ``threading.TIMEOUT_MAX``: such a pool would
    lose its supervisor thread at the first probe."""
    with pytest.raises(ValueError, match="watchdog_timeout must be"):
        PreforkServer("unused", watchdog_timeout=timeout)


def test_respawn_backoff_grows_and_resets(tmp_path, monkeypatch):
    """Restart-storm control: exponential delays, reset after health."""
    pool = PreforkServer(tmp_path / "snap", workers=1)
    slot = pool._slots[0]
    delays: list = []
    monkeypatch.setattr(
        pool._stop, "wait", lambda d: (delays.append(d), False)[1]
    )
    monkeypatch.setattr(pool, "_spawn", lambda s: None)
    slot.started_at = time.time()  # crashed young: the streak builds
    for _ in range(7):
        pool._respawn(slot)
    # Doubling from BACKOFF_BASE, then capped at BACKOFF_CAP.
    assert delays == [0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 5.0]
    slot.started_at = time.time() - 60  # lived long enough: streak resets
    pool._respawn(slot)
    assert delays[-1] == 0.1


# ----------------------------------------------------------------------
# Spawn: sockets inherited, ready or nothing
# ----------------------------------------------------------------------

_DISPATCHER = """
import json, sys, time
from repro.server.prefork import PreforkServer
pool = PreforkServer(sys.argv[1], workers=1)
pool.start()
print(json.dumps([w["pid"] for w in pool.pool_stats()["workers"]]), flush=True)
time.sleep(600)
"""


def _exited(pid: int) -> bool:
    """True once ``pid`` is gone, or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_worker_exits_when_its_dispatcher_is_sigkilled(static_snapshot):
    """No orphans: a SIGKILLed dispatcher never says ``shutdown``, so
    the worker must leave on control-socket EOF alone."""
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    dispatcher = subprocess.Popen(
        [sys.executable, "-c", _DISPATCHER, str(static_snapshot)],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    worker = None
    try:
        (worker,) = json.loads(dispatcher.stdout.readline())
        assert not _exited(worker)
        dispatcher.kill()
        dispatcher.wait(timeout=30)
        _wait_for(lambda: _exited(worker))
    finally:
        dispatcher.kill()
        dispatcher.wait(timeout=30)
        dispatcher.stdout.close()
        if worker is not None and not _exited(worker):
            os.kill(worker, signal.SIGKILL)


def test_worker_that_cannot_open_its_snapshot_fails_start(
    tmp_path, monkeypatch
):
    spawned: list = []
    real_popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        spawned.append(real_popen(*args, **kwargs))
        return spawned[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    pool = PreforkServer(tmp_path / "missing", workers=2)
    with pytest.raises(ConnectionError, match="never became ready"):
        pool.start()
    # start() gives up at the first worker that exits before ``ready``,
    # and leaves no child process behind.
    assert len(spawned) == 1
    assert spawned[0].poll() is not None


# ----------------------------------------------------------------------
# Live snapshot handoff under load (the acceptance parity test)
# ----------------------------------------------------------------------


def test_handoff_under_live_load_zero_errors_and_parity(tmp_path):
    snap = tmp_path / "snap"
    save_snapshot(_chain_store(10), snap, generation=1)

    # Single-process oracles for both generations' answers.
    with QueryService.from_snapshot(snap) as oracle:
        from repro.query.parser import parse_query

        query = parse_query(SPARQL)
        old_rows = sorted(
            oracle.evaluate(query).decoded_rows(oracle.store.dictionary)
        )

    with PreforkServer(snap, workers=2, watch_interval=0.05) as pool:
        stop = threading.Event()
        errors: list = []
        responses: list = []

        def closed_loop():
            client = Client(pool.address)
            try:
                while not stop.is_set():
                    try:
                        status, payload, _ = client.post(
                            "/v1/query", {"sparql": SPARQL, "limit": None}
                        )
                    except OSError as exc:  # pragma: no cover - failure
                        errors.append(repr(exc))
                        return
                    if status != 200:  # pragma: no cover - failure detail
                        errors.append((status, payload))
                        return
                    responses.append(_sorted_rows(payload))
            finally:
                client.close()

        clients = [threading.Thread(target=closed_loop) for _ in range(4)]
        for thread in clients:
            thread.start()
        _wait_for(lambda: len(responses) > 20)

        # Fold writes into generation 2 while the pool is under load:
        # the journaled writer is a *separate* process role (here, the
        # test) — the pool only ever notices the atomic install.
        with QueryService.from_snapshot(snap, wal=True) as writer:
            writer.store.add_term_triples(
                [(f"p{i}", "knows", f"q{i}") for i in range(5)]
            )
            new_rows = sorted(
                writer.evaluate(query).decoded_rows(writer.store.dictionary)
            )
            manifest = writer.compact()
            assert manifest["generation"] == 2

        _wait_for(
            lambda: pool.pool_stats()["pool"]["generations"] == [2],
            timeout=60,
        )
        # Keep the load running a little past the handoff.
        count_after = len(responses)
        _wait_for(lambda: len(responses) > count_after + 20)
        stop.set()
        for thread in clients:
            thread.join(timeout=30)

        assert not errors, (
            f"dropped/errored requests during handoff: {errors[:3]}"
        )
        assert len(old_rows) == 10 and len(new_rows) == 15

        # Parity: every response matches one of the two generations'
        # single-process fingerprints — never a torn in-between.
        old_key = tuple(tuple(r) for r in old_rows)
        new_key = tuple(tuple(r) for r in new_rows)
        seen = {tuple(map(tuple, r)) for r in responses}
        assert seen <= {old_key, new_key}
        assert new_key in seen  # the new generation was served under load

        stats = pool.pool_stats()
        assert stats["pool"]["handoffs"] >= 1
        assert stats["pool"]["restarts"] == 0
        for worker in stats["workers"]:
            assert worker["reloads"] >= 1

        # And a fresh request after the dust settles answers new data.
        client = Client(pool.address)
        try:
            _status, payload, _ = client.post(
                "/v1/query", {"sparql": SPARQL, "limit": None}
            )
            assert tuple(_sorted_rows(payload)) == new_key
        finally:
            client.close()


def test_manual_reload_with_auto_reload_disabled(tmp_path):
    snap = tmp_path / "snap"
    save_snapshot(_chain_store(4), snap, generation=1)
    with PreforkServer(
        snap, workers=1, auto_reload=False, watch_interval=0.05
    ) as pool:
        client = Client(pool.address)
        try:
            _status, payload, _ = client.post(
                "/v1/query", {"sparql": SPARQL, "limit": None}
            )
            assert payload["result"]["count"] == 4

            save_snapshot(_chain_store(6), snap, overwrite=True, generation=2)
            time.sleep(0.3)  # auto_reload off: nothing may move on its own
            _status, payload, _ = client.post("/v1/query", {"sparql": SPARQL})
            assert payload["result"]["count"] == 4

            outcome = pool.reload()
            assert outcome == {0: 2}
            _status, payload, _ = client.post("/v1/query", {"sparql": SPARQL})
            assert payload["result"]["count"] == 6
        finally:
            client.close()
