"""Observability across the prefork pool: traces land on real workers,
and the dispatcher's aggregated ``/metrics`` strict-parses.

Real worker processes over a real on-disk snapshot, scraped over real
sockets — the same wiring ``repro serve --workers N --metrics-port P``
stands up.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.graph.builder import GraphBuilder
from repro.obs.exposition import parse_exposition, sample_value
from repro.server.prefork import PreforkServer
from repro.storage import save_snapshot

from _http_client import Client

SPARQL = "select ?a, ?b where { ?a knows ?b }"


def _chain_store(n_edges: int):
    builder = GraphBuilder()
    for i in range(n_edges):
        builder.edge(f"p{i}", "knows", f"p{i + 1}")
    return builder.build(freeze=True)


@pytest.fixture(scope="module")
def obs_snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("prefork-obs") / "snap"
    save_snapshot(_chain_store(12), path, generation=1)
    return path


@pytest.fixture(scope="module")
def pool(obs_snapshot):
    with PreforkServer(
        obs_snapshot, workers=2, watch_interval=0.1, metrics_port=0
    ) as running:
        yield running


def test_trace_id_propagates_through_a_worker(pool):
    """Header in → worker serves → header out → worker's trace buffer."""
    client = Client(pool.address)
    try:
        status, _, headers = client.post(
            "/v1/query", {"sparql": SPARQL},
            headers={"X-Repro-Trace-Id": "prefork-probe-1"},
        )
        assert status == 200
        assert headers["X-Repro-Trace-Id"] == "prefork-probe-1"
        # Keep-alive pins the connection to one worker: the stats this
        # same socket sees come from the worker that held the trace.
        status, stats, _ = client.get("/v1/stats")
        assert status == 200
        assert "prefork-probe-1" in stats["http"]["recent_trace_ids"]
    finally:
        client.close()


def test_include_trace_spans_from_worker_process(pool):
    client = Client(pool.address)
    try:
        status, payload, headers = client.post(
            "/v1/query",
            {"sparql": "select ?a where { ?a knows ?b . ?b knows ?c }",
             "include_trace": True},
        )
        assert status == 200
        trace = payload["trace"]
        assert trace["trace_id"] == headers["X-Repro-Trace-Id"]
        names = [span["name"] for span in trace["spans"]]
        assert "parse" in names and "queue_wait" in names
    finally:
        client.close()


def test_dispatcher_metrics_listener_aggregates_workers(pool):
    # Spread a few requests over fresh connections so both workers have
    # a chance to serve (not guaranteed — aggregation sums regardless).
    for _ in range(4):
        client = Client(pool.address)
        try:
            assert client.post(
                "/v1/query", {"sparql": SPARQL}
            )[0] == 200
        finally:
            client.close()

    host, port = pool.metrics_address
    with urllib.request.urlopen(
        f"http://{host}:{port}/metrics", timeout=30
    ) as response:
        assert response.status == 200
        assert "version=0.0.4" in response.headers["Content-Type"]
        text = response.read().decode("utf-8")

    families = parse_exposition(text)  # strict: any violation raises
    # Dispatcher-level pool gauges...
    assert sample_value(families, "repro_pool_workers") == 2
    assert sample_value(families, "repro_pool_workers_alive") == 2
    assert sample_value(families, "repro_pool_restarts_total") == 0
    # ...plus worker registries folded together: requests sum across
    # workers, the snapshot generation folds by max (both map gen 1).
    served = sample_value(
        families, "repro_http_requests_total",
        {"route": "/v1/query", "status": "200"},
    )
    assert served >= 4
    assert sample_value(families, "repro_snapshot_generation") == 1
    assert sample_value(
        families, "repro_service_stage_seconds_count", {"stage": "total"}
    ) >= 4
    assert families["repro_http_request_seconds"]["type"] == "histogram"


def _metrics_port_error(pool, path, data=None):
    """The status and JSON error code the metrics port answers with."""
    host, port = pool.metrics_address
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(f"http://{host}:{port}{path}", data, timeout=30)
    assert excinfo.value.headers["Content-Type"] == "application/json"
    return excinfo.value.code, json.load(excinfo.value)["error"]["code"]


def test_metrics_listener_serves_only_metrics(pool):
    assert _metrics_port_error(pool, "/v1/stats") == (404, "not_found")


def test_metrics_listener_refuses_other_methods(pool):
    assert _metrics_port_error(pool, "/metrics", b"{}") == (
        405, "method_not_allowed"
    )


def test_pool_metrics_survive_a_worker_scrape_race(pool):
    """Scraping twice back-to-back stays valid (counters only grow)."""
    host, port = pool.metrics_address
    url = f"http://{host}:{port}/metrics"
    with urllib.request.urlopen(url, timeout=30) as response:
        first = parse_exposition(response.read().decode("utf-8"))
    with urllib.request.urlopen(url, timeout=30) as response:
        second = parse_exposition(response.read().decode("utf-8"))
    before = sample_value(first, "repro_http_requests_total",
                          {"route": "/v1/query", "status": "200"})
    after = sample_value(second, "repro_http_requests_total",
                         {"route": "/v1/query", "status": "200"})
    assert after >= before


def test_log_json_workers_emit_lifecycle_lines(obs_snapshot, capfd):
    with PreforkServer(
        obs_snapshot, workers=2, watch_interval=0.1, log_json=True
    ) as running:
        client = Client(running.address)
        try:
            assert client.post("/v1/query", {"sparql": SPARQL})[0] == 200
        finally:
            client.close()
    err = capfd.readouterr().err
    events = []
    for line in err.splitlines():
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # worker tracebacks etc. — not ours
    by_event = {}
    for record in events:
        by_event.setdefault(record["event"], []).append(record)
    assert "pool_start" in by_event
    assert len(by_event["worker_ready"]) == 2
    workers = {record["worker"] for record in by_event["worker_ready"]}
    assert workers == {0, 1}
    assert all("pid" in r for r in by_event["worker_ready"])
    assert "pool_stop" in by_event


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
