"""Serving-layer resilience: deep health, degraded mode, Retry-After,
and the retrying client.

The end-to-end story under test: a full disk flips the service into
**read-only degraded mode** (writes raise and map to 503 ``degraded``;
reads — and ``/v1/health`` — keep answering 200 so the node stays in
rotation), the health endpoint's rate-limited WAL probe brings the
service back automatically once space returns, and
:class:`repro.client.ReproClient` turns the server's transient signals
(503 + ``Retry-After``, connection resets) into bounded retries.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.client import ClientError, ReproClient
from repro.errors import WalAppendError
from repro.graph.builder import GraphBuilder
from repro.server import serve_in_background
from repro.server.app import HTTPQueryServer
from repro.service import QueryService
from repro.storage import save_snapshot

from faults import ENOSPCHandle

SPARQL = "select ?a, ?b where { ?a knows ?b }"


def _chain_store(n=6):
    builder = GraphBuilder()
    for i in range(n):
        builder.edge(f"p{i}", "knows", f"p{i + 1}")
    return builder.build(freeze=True)


# ----------------------------------------------------------------------
# Deep health probe
# ----------------------------------------------------------------------


def test_health_reports_deep_probe_ok(client):
    status, payload, _ = client.get("/v1/health")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["degraded"] is False
    assert payload["probe"] == {"ok": True}


def test_deep_probe_catches_unreadable_data():
    """A store whose index blows up mid-lookup must probe unhealthy."""

    class _BrokenStore:
        dictionary = {0: "x"}  # len() == 1; decode() missing → TypeError

        def predicates(self):
            return [1]

        def edges(self, p):
            raise OSError("mmap: bad address")

    class _Stub:
        store = _BrokenStore()

    probe = HTTPQueryServer._deep_probe(_Stub())
    assert probe["ok"] is False
    assert "error" in probe


# ----------------------------------------------------------------------
# Computed Retry-After
# ----------------------------------------------------------------------


def test_retry_after_falls_back_then_tracks_drain_rate(service, monkeypatch):
    # A fallback above the clamp's floor, so reading it is observable.
    monkeypatch.setattr("repro.server.app.RETRY_AFTER_SECONDS", 7)
    server = HTTPQueryServer(service)
    # Cold start: nothing has completed → the fallback.
    server._in_flight = 4
    assert server.retry_after() == 7

    # Recent completions: 2 slots/second draining, 4 in flight → ~2s.
    now = time.monotonic()
    for i in range(8):
        server._recent_releases.append((now - 4.0 + i * 0.5, 1))
    assert 1 <= server.retry_after() <= 3

    # Pathologically slow drain clamps at 30; idle clamps at 1.
    server._recent_releases.clear()
    server._recent_releases.append((now - 9.0, 1))
    server._in_flight = 10_000
    assert server.retry_after() == 30
    server._in_flight = 0
    server._recent_releases.clear()
    server._recent_releases.append((now, 50))
    assert server.retry_after() == 1


def test_shed_responses_carry_retry_after_header(tmp_path):
    with QueryService(_chain_store()) as service:
        with serve_in_background(service, max_pending=1) as handle:
            from _http_client import Client

            release = threading.Event()
            admitted = threading.Event()
            original = service.submit

            def slow_submit(query, deadline, materialize, trace=None, limit=None):
                admitted.set()
                # A future that completes only when the test says so —
                # keeps the slot occupied without blocking the server's
                # event loop (submit is called on the loop thread).
                import concurrent.futures

                outer = concurrent.futures.Future()

                def run():
                    release.wait(10)
                    inner = original(
                        query, deadline, materialize, trace=trace
                    )
                    try:
                        outer.set_result(inner.result())
                    except Exception as exc:  # pragma: no cover
                        outer.set_exception(exc)

                threading.Thread(target=run, daemon=True).start()
                return outer

            service.submit = slow_submit
            try:
                blocker = Client(handle.address)
                poster = threading.Thread(
                    target=lambda: blocker.post(
                        "/v1/query", {"sparql": SPARQL}
                    ),
                )
                poster.start()
                # Only shed once the blocker's query holds the one
                # slot — otherwise the shed probe could win the race
                # and occupy it itself.
                assert admitted.wait(10)
                shed = Client(handle.address)
                try:
                    status, payload, headers = shed.post(
                        "/v1/query", {"sparql": SPARQL}
                    )
                    assert status == 503
                    assert payload["error"]["code"] == "overloaded"
                    retry_after = headers.get("Retry-After")
                    assert retry_after is not None
                    assert 1 <= int(retry_after) <= 30
                finally:
                    release.set()
                    poster.join(timeout=10)
                    shed.close()
                    blocker.close()
            finally:
                service.submit = original


# ----------------------------------------------------------------------
# Degraded mode, end to end over HTTP
# ----------------------------------------------------------------------


def test_disk_full_degrades_then_recovers_over_http(tmp_path):
    snap = tmp_path / "snap"
    save_snapshot(_chain_store(6), snap, generation=1)
    service = QueryService.from_snapshot(snap, wal=True)
    service.durable.PROBE_INTERVAL_SECONDS = 0.0
    disk = ENOSPCHandle(service.store.write_log.wal._handle)
    service.store.write_log.wal._handle = disk
    try:
        with serve_in_background(service) as handle:
            client = ReproClient(*handle.address, retries=0)

            # Healthy baseline: writes land, reads answer.
            service.store.add_term_triples([("x", "knows", "y")])
            assert client.health().json()["status"] == "ok"

            # The disk fills: acknowledged writes must *fail loudly*...
            disk.arm()
            with pytest.raises(WalAppendError):
                service.store.add_term_triples([("y", "knows", "z")])

            # ...while reads and health keep serving (200: the node
            # stays in rotation, flagged degraded for operators).
            health = client.health()
            assert health.status == 200
            assert health.json()["status"] == "degraded"
            assert health.json()["degraded"] is True
            result = client.query(SPARQL)
            assert result["result"]["count"] == 7

            # The rejected write never half-landed.
            assert result["result"]["count"] == len(list(service.store.triples()))

            # Space returns: the health poll's WAL probe recovers the
            # service without a restart.
            disk.disarm()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                health = client.health()
                if health.json()["status"] == "ok":
                    break
                time.sleep(0.05)
            assert health.json()["status"] == "ok"
            service.store.add_term_triples([("y", "knows", "z")])
            assert client.query(SPARQL)["result"]["count"] == 8
    finally:
        service.close()


# ----------------------------------------------------------------------
# ReproClient retry policy
# ----------------------------------------------------------------------


def test_client_round_trips_and_counts(server):
    client = ReproClient(*server.address, seed=7)
    result = client.query("select ?a, ?b where { ?a created ?b }")
    assert "result" in result
    assert client.requests_sent == 1
    assert client.retries_performed == 0


def test_client_retries_503_honoring_retry_after(monkeypatch):
    """A 503 with Retry-After sleeps the server's hint, then succeeds."""
    responses = []
    sleeps = []

    class _FakeResponse:
        def __init__(self, status, headers, body):
            self.status = status
            self._headers = headers
            self._body = body

        def getheaders(self):
            return list(self._headers.items())

        def read(self):
            return self._body

    class _FakeConn:
        def __init__(self, *args, **kwargs):
            pass

        def request(self, *args, **kwargs):
            pass

        def getresponse(self):
            return responses.pop(0)

        def close(self):
            pass

    monkeypatch.setattr("http.client.HTTPConnection", _FakeConn)
    monkeypatch.setattr("repro.client.time.sleep", sleeps.append)
    responses.extend(
        [
            _FakeResponse(503, {"Retry-After": "2"}, b'{"error": {}}'),
            _FakeResponse(200, {}, b'{"ok": true}'),
        ]
    )
    client = ReproClient("h", 1, retries=3, seed=1)
    response = client.get("/v1/stats")
    assert response.status == 200
    assert response.attempts == 2
    assert sleeps == [2.0]  # the server's hint, verbatim
    assert client.retries_performed == 1


def test_client_never_retries_consumed_deadlines(monkeypatch):
    """504 means the deadline was spent: exactly one attempt."""
    calls = []

    class _FakeConn:
        def __init__(self, *args, **kwargs):
            pass

        def request(self, *args, **kwargs):
            calls.append(1)

        def getresponse(self):
            class R:
                status = 504

                def getheaders(self):
                    return []

                def read(self):
                    return b'{"error": {"code": "timeout", "message": "x"}}'

            return R()

        def close(self):
            pass

    monkeypatch.setattr("http.client.HTTPConnection", _FakeConn)
    client = ReproClient("h", 1, retries=5, seed=1)
    response = client.get("/v1/query")
    assert response.status == 504
    assert len(calls) == 1


def test_client_retries_connection_errors_within_budget(monkeypatch):
    class _DeadConn:
        def __init__(self, *args, **kwargs):
            pass

        def request(self, *args, **kwargs):
            raise ConnectionRefusedError("nobody home")

        def getresponse(self):  # pragma: no cover — request raises first
            raise AssertionError

        def close(self):
            pass

    monkeypatch.setattr("http.client.HTTPConnection", _DeadConn)
    monkeypatch.setattr("repro.client.time.sleep", lambda s: None)
    client = ReproClient("h", 1, retries=3, seed=1)
    with pytest.raises(ClientError) as excinfo:
        client.get("/v1/health")
    assert excinfo.value.attempts == 4  # 1 try + 3 retries
    assert client.giveups == 1


def test_client_gives_up_when_the_budget_is_exhausted(monkeypatch):
    class _DeadConn:
        def __init__(self, *args, **kwargs):
            pass

        def request(self, *args, **kwargs):
            raise ConnectionRefusedError("nobody home")

        def close(self):
            pass

    monkeypatch.setattr("http.client.HTTPConnection", _DeadConn)
    slept = []
    monkeypatch.setattr("repro.client.time.sleep", slept.append)
    client = ReproClient(
        "h", 1, retries=50, retry_budget_seconds=0.0, seed=1
    )
    with pytest.raises(ClientError) as excinfo:
        client.get("/v1/health")
    # Zero budget: no sleeps happened, the client stopped immediately.
    assert slept == []
    assert excinfo.value.attempts == 1


def test_client_retries_against_a_real_respawning_server(tmp_path):
    """The live half: a server that comes up *after* the first attempt."""
    snap = tmp_path / "snap"
    save_snapshot(_chain_store(3), snap, generation=1)
    service = QueryService.from_snapshot(snap)
    with serve_in_background(service) as handle:
        host, port = handle.address
        good = ReproClient(host, port, retries=2, seed=3)
        assert good.query(SPARQL)["result"]["count"] == 3
    # The server is gone now: the same client exhausts its retries.
    dead = ReproClient(
        host, port, retries=2, retry_budget_seconds=1.0,
        backoff_base=0.01, seed=3,
    )
    with pytest.raises(ClientError):
        dead.query(SPARQL)
    service.close()
