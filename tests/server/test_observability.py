"""End-to-end observability: tracing, /metrics, and the slow-query log.

Everything runs against real servers on real sockets. The ``/metrics``
body is never eyeballed — it goes through
:func:`repro.obs.exposition.parse_exposition`, a parser deliberately
stricter than production scrapers, so a formatting regression fails
here before a Prometheus ever sees it.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.exposition import parse_exposition, sample_value
from repro.obs.logging import JsonLogger
from repro.server import serve_in_background
from repro.service import QueryService

from _http_client import Client

SPARQL = "select ?a, ?b where { ?a created ?b }"
#: Unique to the include_trace test — a repeated query would hit the
#: module service's result cache and short-circuit the traced pipeline.
COLD_SPARQL = "select ?a, ?b where { ?a influences ?b }"
#: A 4-cycle over the densest predicate: closing it takes chords and
#: tens of milliseconds of phase 1, so the traced stages dominate
#: end-to-end latency. (An acyclic join no longer does: phase 2 counts
#: it bottom-up and builds only the rows a small ``limit`` shows.)
HEAVY_SPARQL = (
    "select ?a, ?c where { ?a linksTo ?b . ?b linksTo ?c . ?c linksTo ?d ."
    " ?d linksTo ?a }"
)


# ----------------------------------------------------------------------
# Trace identity: minting, adoption, echo
# ----------------------------------------------------------------------


def test_trace_id_minted_and_echoed_in_header(client):
    status, _, headers = client.post("/v1/query", {"sparql": SPARQL})
    assert status == 200
    trace_id = headers["X-Repro-Trace-Id"]
    assert len(trace_id) == 16
    int(trace_id, 16)  # freshly minted ids are hex


def test_client_supplied_trace_id_is_adopted(client):
    status, _, headers = client.post(
        "/v1/query", {"sparql": SPARQL},
        headers={"X-Repro-Trace-Id": "my-request.7"},
    )
    assert status == 200
    assert headers["X-Repro-Trace-Id"] == "my-request.7"


def test_hostile_trace_id_is_replaced_not_echoed(client):
    status, _, headers = client.post(
        "/v1/query", {"sparql": SPARQL},
        headers={"X-Repro-Trace-Id": "two words"},
    )
    assert status == 200
    assert headers["X-Repro-Trace-Id"] != "two words"
    int(headers["X-Repro-Trace-Id"], 16)


def test_error_responses_still_carry_a_trace_id(client):
    status, payload, headers = client.post("/v1/query", "{not json")
    assert status == 400
    assert payload["error"]["code"] == "malformed_json"
    assert "X-Repro-Trace-Id" in headers


def test_get_routes_are_not_traced(client):
    status, _, headers = client.get("/v1/health")
    assert status == 200
    assert "X-Repro-Trace-Id" not in headers


def test_recent_trace_ids_surface_in_stats(client):
    status, _, headers = client.post(
        "/v1/query", {"sparql": SPARQL},
        headers={"X-Repro-Trace-Id": "stats-probe-1"},
    )
    assert status == 200
    status, stats, _ = client.get("/v1/stats")
    assert status == 200
    http = stats["http"]
    assert http["traces_buffered"] >= 1
    assert "stats-probe-1" in http["recent_trace_ids"]


# ----------------------------------------------------------------------
# include_trace: the span echo
# ----------------------------------------------------------------------


def test_include_trace_returns_stage_spans(client):
    status, payload, headers = client.post(
        "/v1/query", {"sparql": COLD_SPARQL, "include_trace": True}
    )
    assert status == 200
    trace = payload["trace"]
    assert trace["trace_id"] == headers["X-Repro-Trace-Id"]
    assert trace["total_ms"] > 0
    names = [span["name"] for span in trace["spans"]]
    for stage in ("parse", "queue_wait", "plan", "resume"):
        assert stage in names
    for span in trace["spans"]:
        assert set(span) == {"name", "start_ms", "duration_ms", "nested"}
        assert span["duration_ms"] >= 0
        assert span["start_ms"] >= 0


def test_trace_omitted_unless_requested(client):
    status, payload, _ = client.post("/v1/query", {"sparql": SPARQL})
    assert status == 200
    assert "trace" not in payload


def test_batch_include_trace_shares_one_trace(client):
    status, payload, headers = client.post(
        "/v1/batch",
        {"queries": [SPARQL, SPARQL], "include_trace": True},
    )
    assert status == 200
    assert len(payload["results"]) == 2
    assert payload["trace"]["trace_id"] == headers["X-Repro-Trace-Id"]
    names = [span["name"] for span in payload["trace"]["spans"]]
    assert "parse" in names


def test_stage_spans_sum_close_to_end_to_end_latency(
    mini_yago, mini_yago_catalog
):
    """Top-level stage spans account for >= 90% of a cold query's latency.

    Fresh service per attempt: a result-cache hit would short-circuit
    the pipeline and leave nothing to attribute. Best-of-3 guards
    against a scheduler hiccup inflating the unspanned gaps.
    """
    best = 0.0
    for _ in range(3):
        with QueryService(mini_yago, catalog=mini_yago_catalog) as svc:
            with serve_in_background(svc) as handle:
                client = Client(handle.address)
                try:
                    status, payload, _ = client.post(
                        "/v1/query",
                        {"sparql": HEAVY_SPARQL, "include_trace": True,
                         "limit": 5},
                    )
                finally:
                    client.close()
        assert status == 200
        trace = payload["trace"]
        spanned = sum(
            span["duration_ms"]
            for span in trace["spans"]
            if not span["nested"]
        )
        best = max(best, spanned / trace["total_ms"])
        if best >= 0.9:
            break
    assert best >= 0.9, f"stage spans cover only {best:.1%} of the request"


# ----------------------------------------------------------------------
# GET /metrics
# ----------------------------------------------------------------------


def test_metrics_strict_parse_and_request_accounting(client):
    for _ in range(2):
        assert client.post("/v1/query", {"sparql": SPARQL})[0] == 200
    status, text, headers = client.get_text("/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    assert "version=0.0.4" in headers["Content-Type"]

    families = parse_exposition(text)  # raises on any format violation
    assert families["repro_http_requests_total"]["type"] == "counter"
    assert families["repro_http_request_seconds"]["type"] == "histogram"
    assert families["repro_service_stage_seconds"]["type"] == "histogram"

    ok_queries = sample_value(
        families, "repro_http_requests_total",
        {"route": "/v1/query", "status": "200"},
    )
    assert ok_queries >= 2
    seconds_count = sample_value(
        families, "repro_http_request_seconds_count", {"route": "/v1/query"}
    )
    assert seconds_count >= 2
    # The service-side pipeline histogram observed the same requests.
    assert sample_value(
        families, "repro_service_stage_seconds_count", {"stage": "total"}
    ) >= 2
    assert sample_value(families, "repro_store_triples") > 0
    # The scrape itself lands in the 'other'-guarded route ledger next
    # time; this scrape must at least see the gauges without error.
    assert sample_value(families, "repro_service_queue_depth") is not None


def test_hit_path_memos_are_observable(fresh):
    """Request-memo lookups/size and fragment renders vs reuses, the
    same numbers in ``/metrics`` and under ``/v1/stats`` ``http``."""
    _svc, fresh_client = fresh
    for _ in range(4):
        assert fresh_client.post("/v1/query", {"sparql": SPARQL})[0] == 200
    assert fresh_client.post("/v1/query", {"sparql": "select"})[0] == 400
    _status, text, _ = fresh_client.get_text("/metrics")
    http = fresh_client.get("/v1/stats")[1]["http"]
    families = parse_exposition(text)
    lookups = "repro_http_request_memo_lookups_total"
    fragments = "repro_cache_result_fragments_total"
    assert families[lookups]["type"] == families[fragments]["type"] == "counter"
    assert families["repro_http_request_memo_size"]["type"] == "gauge"
    # One parse served four requests; the refused body was looked up,
    # missed, and never stored.
    assert sample_value(families, lookups, {"outcome": "hit"}) == 3
    assert sample_value(families, lookups, {"outcome": "miss"}) == 2
    assert sample_value(families, "repro_http_request_memo_size") == 1
    # The miss rendered its own copy, the first hit the entry's.
    assert sample_value(families, fragments, {"outcome": "rendered"}) == 2
    assert sample_value(families, fragments, {"outcome": "reused"}) == 2
    assert http["request_memo"] == {
        "hits": 3, "misses": 2, "size": 1, "maxsize": 1024,
    }
    assert http["result_fragments"] == {"rendered": 2, "reused": 2}


def test_metrics_scrape_route_is_label_bounded(client):
    client.get_text("/metrics")
    client.get("/no/such/route")
    status, text, _ = client.get_text("/metrics")
    assert status == 200
    families = parse_exposition(text)
    routes = {
        labels["route"]
        for _name, labels, _v in families["repro_http_requests_total"]["samples"]
    }
    assert "/metrics" in routes
    assert "/no/such/route" not in routes  # unknown paths collapse
    assert "other" in routes


def test_wal_metrics_appear_only_for_journaled_service(tmp_path):
    with QueryService.from_snapshot(tmp_path / "snap", wal=True) as svc:
        svc.store.add_term_triples([("a", "p", "b"), ("b", "p", "c")])
        with serve_in_background(svc) as handle:
            client = Client(handle.address)
            try:
                status, text, _ = client.get_text("/metrics")
            finally:
                client.close()
    families = parse_exposition(text)
    assert sample_value(families, "repro_wal_records") >= 1
    assert sample_value(families, "repro_wal_fsyncs_total") >= 1
    assert sample_value(families, "repro_wal_appends_total") >= 1


def test_wal_metrics_absent_without_wal(client):
    status, text, _ = client.get_text("/metrics")
    assert status == 200
    families = parse_exposition(text)
    assert "repro_wal_records" not in families
    assert "repro_wal_appends_total" not in families


# ----------------------------------------------------------------------
# /v1/stats and /metrics: one source
# ----------------------------------------------------------------------


def test_stats_and_metrics_read_one_source(fresh):
    _svc, fresh_client = fresh
    queries = 5
    for _ in range(queries):  # one miss, then result-cache hits
        assert fresh_client.post("/v1/query", {"sparql": SPARQL})[0] == 200
    service = fresh_client.get("/v1/stats")[1]["service"]
    families = parse_exposition(fresh_client.get_text("/metrics")[1])
    ok = sample_value(families, "repro_service_queries_total", {"outcome": "ok"})
    total = sample_value(
        families, "repro_service_stage_seconds_count", {"stage": "total"}
    )
    assert service["completed"] == ok == queries
    assert service["latency_seconds"]["total"]["count"] == total == queries
    # The percentiles estimate every observation since start.
    for phase in ("queue", "plan", "exec", "total"):
        digest = service["latency_seconds"][phase]
        assert digest["samples"] == digest["window_size"] == digest["count"]
        assert 0.0 <= digest["p50"] <= digest["p90"] <= digest["p99"]


# ----------------------------------------------------------------------
# Slow-query log
# ----------------------------------------------------------------------


def _slow_query_lines(stream: io.StringIO) -> list[dict]:
    return [
        record
        for record in map(json.loads, stream.getvalue().splitlines())
        if record["event"] == "slow_query"
    ]


def test_slow_query_log_captures_trace_and_stages(
    mini_yago, mini_yago_catalog
):
    stream = io.StringIO()
    with QueryService(mini_yago, catalog=mini_yago_catalog) as svc:
        with serve_in_background(
            svc,
            slow_query_seconds=1e-6,  # everything is slow: capture all
            logger=JsonLogger(stream),
        ) as handle:
            client = Client(handle.address)
            try:
                status, _, _ = client.post(
                    "/v1/query", {"sparql": SPARQL},
                    headers={"X-Repro-Trace-Id": "slowlog-probe"},
                )
                assert status == 200
                fast_status, _, _ = client.get("/v1/health")
                assert fast_status == 200  # GETs never hit the slow log
            finally:
                client.close()
    (record,) = _slow_query_lines(stream)
    assert record["trace_id"] == "slowlog-probe"
    assert record["route"] == "/v1/query"
    assert record["status"] == 200
    assert record["total_ms"] >= record["stages_ms"]["plan"]
    assert "queue_wait" in record["stages_ms"]
    assert len(record["query_signature"]) == 16
    assert record["total_ms"] > 0 and record["threshold_ms"] > 0


def test_fast_requests_stay_out_of_the_slow_log(
    mini_yago, mini_yago_catalog
):
    stream = io.StringIO()
    with QueryService(mini_yago, catalog=mini_yago_catalog) as svc:
        with serve_in_background(
            svc,
            slow_query_seconds=3600.0,  # nothing is that slow
            logger=JsonLogger(stream),
        ) as handle:
            client = Client(handle.address)
            try:
                assert client.post("/v1/query", {"sparql": SPARQL})[0] == 200
            finally:
                client.close()
    assert _slow_query_lines(stream) == []


# ----------------------------------------------------------------------
# Kill switch
# ----------------------------------------------------------------------


def test_observability_off_skips_tracing_but_keeps_metrics(
    mini_yago, mini_yago_catalog
):
    with QueryService(mini_yago, catalog=mini_yago_catalog) as svc:
        with serve_in_background(svc, observability=False) as handle:
            client = Client(handle.address)
            try:
                status, payload, headers = client.post(
                    "/v1/query", {"sparql": SPARQL, "include_trace": True}
                )
                assert status == 200
                assert "X-Repro-Trace-Id" not in headers
                assert payload["trace"] is None  # asked for, none recorded
                status, text, _ = client.get_text("/metrics")
                assert status == 200
                families = parse_exposition(text)
                # Scrape-time callbacks still work; per-request counters
                # are simply never incremented.
                assert sample_value(families, "repro_store_triples") > 0
            finally:
                client.close()


def test_lifecycle_events_are_json_lines(mini_yago, mini_yago_catalog):
    stream = io.StringIO()
    with QueryService(mini_yago, catalog=mini_yago_catalog) as svc:
        with serve_in_background(svc, logger=JsonLogger(stream)) as handle:
            client = Client(handle.address)
            try:
                assert client.get("/v1/health")[0] == 200
            finally:
                client.close()
    events = [json.loads(line)["event"]
              for line in stream.getvalue().splitlines()]
    assert events[0] == "server_start"
    assert "server_drain" in events
    assert events[-1] == "server_stop"


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
