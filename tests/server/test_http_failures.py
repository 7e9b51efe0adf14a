"""Failure modes over the wire: bad input, load shedding, graceful drain.

The shedding and drain tests run against a ``ManualService`` — an
object with the ``QueryService`` surface the server uses, whose
futures the *test* resolves by hand. That makes "two queries in
flight" and "request still running when shutdown starts" exact states
rather than timing hopes.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import pytest

from repro.core.engine import WireframeEngine
from repro.query.parser import parse_query
from repro.server import serve_in_background

from _http_client import make_client

SPARQL = "select ?a, ?b where { ?a created ?b }"


# ----------------------------------------------------------------------
# Request validation (shared module server)
# ----------------------------------------------------------------------


def test_malformed_json_400(client):
    status, payload, _ = client.post("/v1/query", "{not json")
    assert status == 400
    assert payload["error"]["code"] == "malformed_json"


def test_non_object_body_400(client):
    status, payload, _ = client.post("/v1/query", [1, 2, 3])
    assert status == 400
    assert payload["error"]["code"] == "invalid_field"


def test_unknown_field_400_names_the_field(client):
    status, payload, _ = client.post(
        "/v1/query", {"sparql": SPARQL, "timeout_secconds": 5}
    )
    assert status == 400
    assert payload["error"]["code"] == "unknown_field"
    assert "timeout_secconds" in payload["error"]["message"]
    assert "timeout_seconds" in payload["error"]["message"]  # allowed list


def test_query_and_sparql_both_or_neither_400(client):
    for body in (
        {},
        {"sparql": SPARQL, "query": parse_query(SPARQL).to_dict()},
    ):
        status, payload, _ = client.post("/v1/query", body)
        assert status == 400
        assert payload["error"]["code"] == "invalid_field"


def test_sparql_parse_error_400(client):
    status, payload, _ = client.post(
        "/v1/query", {"sparql": "select ?a where { ?a knows }"}
    )
    assert status == 400
    assert payload["error"]["code"] == "parse_error"


def test_invalid_wire_query_400(client):
    doc = parse_query(SPARQL).to_dict()
    doc["version"] = 99
    status, payload, _ = client.post("/v1/query", {"query": doc})
    assert status == 400
    assert payload["error"]["code"] == "invalid_query"


def test_disconnected_query_rejected_400(client):
    """validate() runs server-side: a cross-product query is refused."""
    status, payload, _ = client.post(
        "/v1/query",
        {"sparql": "select ?a, ?c where { ?a knows ?b . ?c knows ?d }"},
    )
    assert status == 400
    assert payload["error"]["code"] == "invalid_query"


def raw_timeout(value: str) -> str:
    """A request body whose ``timeout_seconds`` is ``value`` verbatim."""
    return '{"sparql": "%s", "timeout_seconds": %s}' % (SPARQL, value)


BAD_OPTIONS = [
    ({"sparql": SPARQL, "timeout_seconds": -1}, None, "invalid_field"),
    ({"sparql": SPARQL, "timeout_seconds": "fast"}, None, "invalid_field"),
    ({"sparql": SPARQL, "limit": -2}, None, "invalid_field"),
    ({"sparql": SPARQL, "limit": True}, None, "invalid_field"),
    ({"sparql": SPARQL, "materialize": "yes"}, None, "invalid_field"),
    # Python's decoder accepts JSON's missing non-finite numbers, and a
    # NaN or infinite timeout passes ``<= 0``: neither may get through.
    (raw_timeout("NaN"), None, "malformed_json"),
    (raw_timeout("Infinity"), None, "malformed_json"),
    (raw_timeout("-Infinity"), None, "malformed_json"),
    (raw_timeout("1e999"), None, "invalid_field"),  # a valid number, decoded as inf
    (raw_timeout("1" + "0" * 400), None, "invalid_field"),  # an int too large for a float
    ({"sparql": SPARQL}, {"X-Repro-Timeout": "nan"}, "invalid_field"),
    ({"sparql": SPARQL}, {"X-Repro-Timeout": "inf"}, "invalid_field"),
    # Finite, but longer than a lock or a socket can wait.
    ({"sparql": SPARQL, "timeout_seconds": 1e10}, None, "invalid_field"),
    ({"sparql": SPARQL}, {"X-Repro-Timeout": "1e10"}, "invalid_field"),
    # More digits than Python converts to an int: a ValueError, not a 500.
    (raw_timeout("1" + "0" * 5000), None, "malformed_json"),
]


@pytest.mark.parametrize(
    "body, headers, code",
    BAD_OPTIONS,
    ids=[f"body{i}" for i in range(5)]  # the ids these five always had
    + ["nan", "infinity", "minus-infinity", "overflow", "huge-int", "nan-header", "inf-header",
       "above-timeout-max", "above-timeout-max-header", "int-past-digit-limit"],
)
def test_bad_option_values_400(client, body, headers, code):
    status, payload, _ = client.post("/v1/query", body, headers=headers)
    assert status == 400
    assert payload["error"]["code"] == code


def test_bad_timeout_header_400(client):
    status, payload, _ = client.post(
        "/v1/query", {"sparql": SPARQL}, headers={"X-Repro-Timeout": "soon"}
    )
    assert status == 400
    assert payload["error"]["code"] == "invalid_field"


def test_empty_batch_400(client):
    status, payload, _ = client.post("/v1/batch", {"queries": []})
    assert status == 400
    assert payload["error"]["code"] == "invalid_field"


def test_oversized_batch_413(client):
    status, payload, _ = client.post("/v1/batch", {"queries": [SPARQL] * 257})
    assert status == 413
    assert payload["error"]["code"] == "invalid_field"


def test_oversized_body_413(service):
    """Bodies beyond max_body_bytes are refused before being read."""
    with serve_in_background(service, max_body_bytes=512) as handle:
        c = make_client(handle)
        try:
            status, payload, _ = c.post(
                "/v1/query", {"sparql": SPARQL, "limit": None, "x": "y" * 600}
            )
            assert status == 413
            assert payload["error"]["code"] == "body_too_large"
        finally:
            c.close()


# ----------------------------------------------------------------------
# Backpressure and graceful shutdown (manual-resolution service)
# ----------------------------------------------------------------------


class ManualService:
    """The QueryService surface the server needs, resolved by hand."""

    def __init__(self, store):
        self.store = store
        self.epoch = 0
        self.durable = None
        self.futures: list[Future] = []
        self.submitted = threading.Event()

    def submit(self, query, deadline, materialize, trace=None, limit=None) -> Future:
        """Record the call and hand back a future the test will resolve."""
        future: Future = Future()
        self.futures.append(future)
        self.submitted.set()
        return future

    def snapshot(self) -> dict:
        """Minimal stats surface."""
        return {"queue_depth": 0, "in_flight": len(self.futures)}


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


def _post_in_thread(handle, results, body=None):
    client = make_client(handle)

    def run():
        try:
            results.append(client.post("/v1/query", body or {"sparql": SPARQL}))
        finally:
            client.close()

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def test_full_queue_sheds_503_with_retry_after(mini_yago):
    service = ManualService(mini_yago)
    real = WireframeEngine(mini_yago).evaluate(parse_query(SPARQL))
    with serve_in_background(service, max_pending=2) as handle:
        results: list = []
        threads = [_post_in_thread(handle, results) for _ in range(2)]
        _wait_for(lambda: len(service.futures) == 2)

        # both slots taken: the third submission is shed immediately
        extra = make_client(handle)
        try:
            status, payload, headers = extra.post("/v1/query", {"sparql": SPARQL})
        finally:
            extra.close()
        assert status == 503
        assert payload["error"]["code"] == "overloaded"
        assert headers["Retry-After"] == "1"
        assert handle.server.http_stats()["shed"] == 1

        # free the slots: the two admitted requests complete normally
        for future in service.futures:
            future.set_result(real)
        for thread in threads:
            thread.join(timeout=10)
        assert [status for status, _, _ in results] == [200, 200]
        _wait_for(lambda: handle.server.http_stats()["in_flight"] == 0)


def test_batch_admission_counts_batch_size(mini_yago):
    """A 3-query batch does not fit in 2 slots — shed as one unit."""
    service = ManualService(mini_yago)
    with serve_in_background(service, max_pending=2) as handle:
        c = make_client(handle)
        try:
            status, payload, _ = c.post("/v1/batch", {"queries": [SPARQL] * 3})
        finally:
            c.close()
        assert status == 503
        assert payload["error"]["code"] == "overloaded"
        assert service.futures == []  # nothing was submitted


def test_graceful_shutdown_drains_in_flight(mini_yago):
    """Shutdown waits for the running query; new work answers 503."""
    service = ManualService(mini_yago)
    real = WireframeEngine(mini_yago).evaluate(parse_query(SPARQL))
    handle = serve_in_background(service)

    # connections established *before* the listener closes
    health_conn = make_client(handle)
    post_conn = make_client(handle)
    health_conn.conn.connect()
    post_conn.conn.connect()

    results: list = []
    in_flight = _post_in_thread(handle, results)
    _wait_for(lambda: len(service.futures) == 1)

    shutdown = threading.Thread(target=handle.shutdown)
    shutdown.start()
    _wait_for(lambda: handle.server.http_stats()["draining"])

    # health flips to 503 so load balancers rotate the instance out
    status, payload, _ = health_conn.get("/v1/health")
    assert status == 503
    assert payload["status"] == "draining"
    health_conn.close()

    # new query work on a live connection is refused while draining
    status, payload, _ = post_conn.post("/v1/query", {"sparql": SPARQL})
    assert status == 503
    assert payload["error"]["code"] == "draining"
    post_conn.close()

    # the server is still up: it is waiting on the in-flight request
    assert shutdown.is_alive()
    service.futures[0].set_result(real)
    in_flight.join(timeout=10)
    shutdown.join(timeout=10)
    assert not shutdown.is_alive()

    # the drained request got its full, successful response
    (entry,) = results
    status, payload, _ = entry
    assert status == 200
    assert payload["result"]["count"] == real.count
