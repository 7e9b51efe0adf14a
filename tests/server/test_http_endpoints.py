"""End-to-end tests for the ``/v1`` endpoints against a live server.

The parity tests assert that ``POST /v1/query`` answers paper queries
with exactly the rows an in-process ``QueryService.evaluate`` returns —
the HTTP layer must be a transport, never a different engine. The
whole suite runs under both backends via the ``REPRO_BACKEND``
environment variable (see CI), so parity is checked on hashdict and
columnar alike.
"""

from __future__ import annotations

import json

import pytest

from repro.core.engine import WireframeEngine
from repro.datasets.paper_queries import (
    paper_diamond_queries,
    paper_snowflake_queries,
)
from repro.query.model import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.server.app import DEFAULT_ROW_LIMIT
from repro.server.wire import (
    API_VERSION,
    parse_batch_request,
    parse_query_request,
)

PAPER_QUERIES = paper_snowflake_queries()[:3] + paper_diamond_queries()[:3]
#: Joined only through a constant the store does not know: no rows.
UNKNOWN_CONSTANT = ConjunctiveQuery(
    [("?a", "actedIn", "zz"), ("zz", "actedIn", "?b")], name="unknown-constant"
)


def test_health_ok(client, service):
    status, payload, headers = client.get("/v1/health")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["api_version"] == API_VERSION
    assert payload["backend"] == service.store.backend_name
    assert payload["triples"] == service.store.num_triples
    assert headers["Content-Type"] == "application/json"


@pytest.mark.parametrize("query", PAPER_QUERIES + [UNKNOWN_CONSTANT], ids=lambda q: q.name)
def test_query_parity_with_in_process_service(client, service, query):
    """HTTP answers == in-process answers, row for row."""
    expected = service.evaluate(query)
    status, payload, _ = client.post(
        "/v1/query", {"query": query.to_dict(), "limit": None}
    )
    assert status == 200
    assert payload["api_version"] == API_VERSION
    assert payload["query"] == query.name
    assert payload["columns"] == [v.name for v in query.projection]
    result = payload["result"]
    assert result["count"] == expected.count
    expected_rows = [
        list(row) for row in expected.decoded_rows(service.store.dictionary)
    ]
    assert sorted(map(tuple, result["rows"])) == sorted(map(tuple, expected_rows))
    assert result["truncated"] is False


def test_query_via_sparql_text(client, service):
    sparql = "select ?a, ?b where { ?a created ?b }"
    expected = service.evaluate(parse_query(sparql))
    status, payload, _ = client.post("/v1/query", {"sparql": sparql, "limit": None})
    assert status == 200
    assert payload["result"]["count"] == expected.count
    assert len(payload["result"]["rows"]) == expected.count


def test_query_row_limit_truncates_not_count(client, service):
    sparql = "select ?a, ?b where { ?a created ?b }"
    expected = service.evaluate(parse_query(sparql))
    assert expected.count > 3
    status, payload, _ = client.post("/v1/query", {"sparql": sparql, "limit": 3})
    assert status == 200
    assert len(payload["result"]["rows"]) == 3
    assert payload["result"]["truncated"] is True
    assert payload["result"]["count"] == expected.count


def test_query_unmaterialized_counts_only(client, service):
    sparql = "select ?a, ?b where { ?a created ?b }"
    expected = service.evaluate(parse_query(sparql))
    status, payload, _ = client.post(
        "/v1/query", {"sparql": sparql, "materialize": False}
    )
    assert status == 200
    assert payload["result"]["rows"] is None
    assert payload["result"]["count"] == expected.count


def test_batch_mixed_forms_order_preserved(client, service):
    """A batch mixing SPARQL text and wire dicts answers in input order."""
    q0 = PAPER_QUERIES[0]
    sparql = "select ?a, ?b where { ?a created ?b }"
    status, payload, _ = client.post(
        "/v1/batch", {"queries": [q0.to_dict(), sparql], "limit": None}
    )
    assert status == 200
    assert payload["api_version"] == API_VERSION
    results = payload["results"]
    assert len(results) == 2
    assert results[0]["query"] == q0.name
    assert results[0]["result"]["count"] == service.evaluate(q0).count
    assert results[1]["result"]["count"] == service.evaluate(parse_query(sparql)).count


def test_batch_isolates_per_query_errors(client):
    """One failing query marks its slot; the others still answer."""
    good = "select ?a, ?b where { ?a created ?b }"
    status, payload, _ = client.post(
        "/v1/batch",
        {"queries": [good, good]},
    )
    assert status == 200
    assert all("result" in entry for entry in payload["results"])
    # A deadline no queue hop can meet times out one slot. The query
    # must be fresh (not yet in the result cache — cached answers are
    # returned without spending the deadline budget).
    doomed = parse_query(
        "select ?a where { ?a actedIn ?b . ?b locatedIn ?c }"
    ).to_dict()
    status, payload, _ = client.post(
        "/v1/batch",
        {"queries": [doomed, good], "timeout_seconds": 1e-6},
    )
    assert status == 200
    first, second = payload["results"]
    assert first["error"]["code"] == "timeout"
    assert "result" not in first
    # 'good' is cached from the first batch, so it answers even under
    # the impossible budget — proving error isolation per slot.
    assert "result" in second


def test_stats_expose_queue_depth_and_http_gauges(client, server):
    client.post("/v1/query", {"sparql": "select ?a, ?b where { ?a created ?b }"})
    status, payload, _ = client.get("/v1/stats")
    assert status == 200
    service_snap = payload["service"]
    # the fixed satellite: snapshot() reports backpressure gauges
    assert "queue_depth" in service_snap
    assert "in_flight" in service_snap
    assert service_snap["queue_depth"] >= 0
    http = payload["http"]
    assert http["max_pending"] == server.server.max_pending
    assert http["requests"] >= 2
    assert http["draining"] is False
    assert http["in_flight"] == 0


def test_stats_expose_wal_gauges_for_journaled_service(tmp_path):
    """A server over a crash-safe (wal=True) service surfaces the log
    gauges straight through ``/v1/stats`` — no wire change needed."""
    from _http_client import Client

    from repro.server import serve_in_background
    from repro.service import QueryService

    with QueryService.from_snapshot(tmp_path / "snap", wal=True) as svc:
        svc.store.add_term_triples([("alice", "knows", "bob")])
        with serve_in_background(svc) as handle:
            wal_client = Client(handle.address)
            try:
                status, payload, _ = wal_client.get("/v1/stats")
            finally:
                wal_client.close()
    assert status == 200
    gauges = payload["service"]["wal"]
    assert gauges["records"] == 1
    assert gauges["last_seq"] == 1
    assert gauges["fsync"] == "batch"
    assert gauges["compactions"] == 0
    assert gauges["generation"] == 0
    assert gauges["size_bytes"] > 0


def test_unknown_endpoint_404(client):
    status, payload, _ = client.get("/v2/query")
    assert status == 404
    assert payload["error"]["code"] == "not_found"
    assert "/v1/query" in payload["error"]["message"]


def test_wrong_method_405(client):
    status, payload, _ = client.get("/v1/query")
    assert status == 405
    assert payload["error"]["code"] == "method_not_allowed"


def test_keep_alive_reuses_one_connection(client):
    """Several requests on the same socket all answer (HTTP/1.1 keep-alive)."""
    for _ in range(3):
        status, payload, _ = client.get("/v1/health")
        assert status == 200
    assert client.conn.sock is not None


def test_header_timeout_maps_to_504(client):
    """X-Repro-Timeout becomes a Deadline; an impossible budget -> 504.

    The queries here are unique to these tests: a result-cache hit
    answers without spending the budget, so a repeated signature would
    not time out deterministically.
    """
    status, payload, _ = client.post(
        "/v1/query",
        {"sparql": "select ?a where { ?a hasWonPrize ?b . ?a diedIn ?c }"},
        headers={"X-Repro-Timeout": "0.000001"},
    )
    assert status == 504
    assert payload["error"]["code"] == "timeout"


def test_body_timeout_wins_over_header(client):
    """timeout_seconds in the body overrides the header (generous header,
    impossible body budget -> still 504)."""
    status, payload, _ = client.post(
        "/v1/query",
        {
            "sparql": "select ?a where { ?a wasBornIn ?b . ?a diedIn ?c }",
            "timeout_seconds": 1e-6,
        },
        headers={"X-Repro-Timeout": "30"},
    )
    assert status == 504
    assert payload["error"]["code"] == "timeout"


# ----------------------------------------------------------------------
# The memoized hit path: same bytes as json.dumps(payload), own heads
# ----------------------------------------------------------------------

HIT_STATS = {"plan_cache": "cached", "result_cache": "hit", "queue_seconds": 0.0}
CREATED = "select ?a, ?b where { ?a created ?b }"


def _entry_result_doc(svc, req, served: dict) -> dict:
    """What ``to_dict`` gives for the result-cache entry behind ``req``.

    ``served`` is the result object a response carried: its per-call
    ``service`` stats (a miss's queue time cannot be known from here)
    are taken over, everything else comes from the entry. The lookup
    asks for the request's own ``limit``: an entry built for that many
    rows holds no more, so an unlimited lookup would be a miss.
    """
    result = svc.evaluate(req.query, materialize=req.materialize, limit=req.limit)
    assert result.stats["service"] == HIT_STATS
    doc = result.to_dict(svc.store.dictionary, limit=req.limit)
    doc["stats"]["service"] = served["stats"]["service"]
    return doc


def _dumped_query_payload(svc, doc: dict, reply: bytes) -> bytes:
    """``json.dumps`` of the payload dict the handler used to build for
    the request document ``doc``, given the ``reply`` it was served."""
    req = parse_query_request(doc, default_limit=DEFAULT_ROW_LIMIT)
    got = json.loads(reply)
    payload = {
        "api_version": API_VERSION,
        "query": req.query.name,
        "columns": [v.name for v in req.query.projection],
        "result": _entry_result_doc(svc, req, got["result"]),
    }
    if req.include_trace:
        payload["trace"] = got["trace"]
    return json.dumps(payload).encode("utf-8")


@pytest.mark.parametrize("include_trace", [False, True], ids=["plain", "trace"])
@pytest.mark.parametrize(
    "limit", [{"limit": 0}, {"limit": 3}, {}, {"limit": None}],
    ids=["limit0", "limit3", "default", "null"],
)
@pytest.mark.parametrize("materialize", [True, False], ids=["rows", "count"])
def test_memoized_query_body_is_json_dumps_of_the_payload(
    fresh, materialize, limit, include_trace
):
    svc, fresh_client = fresh
    doc = {"sparql": CREATED, "materialize": materialize, **limit}
    if include_trace:
        doc["include_trace"] = True
    body = json.dumps(doc).encode()
    replies = [fresh_client.post_raw("/v1/query", body) for _ in range(3)]
    assert [status for status, _ in replies] == [200, 200, 200]
    outcomes = [
        json.loads(reply)["result"]["stats"]["service"] for _, reply in replies
    ]
    assert outcomes[0]["result_cache"] == "miss"
    assert outcomes[1:] == [HIT_STATS, HIT_STATS]
    for _, reply in replies:
        assert reply == _dumped_query_payload(svc, doc, reply)
    if not include_trace:
        assert replies[1][1] == replies[2][1]


def test_memoized_batch_body_with_a_failing_entry(fresh):
    svc, fresh_client = fresh
    doomed = parse_query(
        "select ?a where { ?a actedIn ?b . ?b locatedIn ?c }"
    ).to_dict()
    docs = [{"queries": [CREATED]}] + 2 * [
        {"queries": [doomed, CREATED], "timeout_seconds": 1e-6}
    ]
    outcomes = []
    for doc in docs:
        status, reply = fresh_client.post_raw(
            "/v1/batch", json.dumps(doc).encode()
        )
        assert status == 200
        got = json.loads(reply)
        results = []
        for req, entry in zip(
            parse_batch_request(doc, default_limit=DEFAULT_ROW_LIMIT),
            got["results"],
        ):
            if "error" in entry:
                assert entry["error"]["code"] == "timeout"
                results.append(
                    {"query": req.query.name, "error": entry["error"]}
                )
                continue
            outcomes.append(entry["result"]["stats"]["service"]["result_cache"])
            results.append({
                "query": req.query.name,
                "columns": [v.name for v in req.query.projection],
                "result": _entry_result_doc(svc, req, entry["result"]),
            })
        assert [("error" in entry) for entry in got["results"]] == (
            [False] if len(doc["queries"]) == 1 else [True, False]
        )
        payload = {"api_version": API_VERSION, "results": results}
        assert reply == json.dumps(payload).encode("utf-8")
    assert outcomes == ["miss", "hit", "hit"]


def test_alpha_renamed_queries_share_a_result_but_not_a_head(fresh):
    svc, fresh_client = fresh
    first = ConjunctiveQuery([("?x", "created", "?y")], name="first")
    second = ConjunctiveQuery([("?a", "created", "?b")], name="second")
    payloads = []
    for query in (first, second, first, second):
        status, payload, _ = fresh_client.post(
            "/v1/query", {"query": query.to_dict()}
        )
        assert status == 200
        assert payload["query"] == query.name
        assert payload["columns"] == [v.name for v in query.projection]
        payloads.append(payload)
    assert svc.result_cache.stats().size == 1
    assert [p["result"]["stats"]["service"]["result_cache"] for p in payloads] == [
        "miss", "hit", "hit", "hit",
    ]
    assert payloads[1]["result"] == payloads[2]["result"] == payloads[3]["result"]


# ----------------------------------------------------------------------
# Row limits: a miss builds, and the result cache keeps, at most `limit`
# ----------------------------------------------------------------------

#: Fourteen rows on ``mini_yago``.
EXPORTS = "select ?a, ?b where { ?a exports ?b }"


def _answers(fresh_client, path: str, docs: list[dict]) -> list:
    """The ``result`` object(s) of each reply, with their cache outcome
    pulled out of ``stats``: ``(outcome, result)``, or a list of those
    for a batch."""
    out = []
    for doc in docs:
        status, payload, _ = fresh_client.post(path, doc)
        assert status == 200
        results = [payload["result"]] if "result" in payload else [
            entry["result"] for entry in payload["results"]
        ]
        pairs = [(r["stats"]["service"]["result_cache"], r) for r in results]
        out.append(pairs[0] if "result" in payload else pairs)
    return out


def test_limit_probe_reads_miss_hit_miss_hit(fresh):
    _svc, fresh_client = fresh
    docs = [{"sparql": CREATED, "limit": limit} for limit in (3, 2, None, None)]
    answers = _answers(fresh_client, "/v1/query", docs)
    assert [outcome for outcome, _ in answers] == ["miss", "hit", "miss", "hit"]
    results = [result for _, result in answers]
    count = results[0]["count"]
    assert count > 3 and {r["count"] for r in results} == {count}
    assert [len(r["rows"]) for r in results] == [3, 2, count, count]
    assert [r["truncated"] for r in results] == [True, True, False, False]
    assert results[1]["rows"] == results[0]["rows"][:2] == results[2]["rows"][:2]
    assert results[3]["rows"] == results[2]["rows"]


def test_limit_zero_returns_no_rows_and_an_exact_count(fresh):
    svc, fresh_client = fresh
    [(outcome, result)] = _answers(
        fresh_client, "/v1/query", [{"sparql": CREATED, "limit": 0}]
    )
    assert outcome == "miss"
    assert (result["rows"], result["truncated"]) == ([], True)
    assert result["count"] == svc.evaluate(parse_query(CREATED)).count


def _count(svc, sparql: str) -> int:
    return WireframeEngine(svc.store).evaluate(parse_query(sparql)).count


def test_a_limit_at_least_the_count_answers_as_null_does(fresh):
    svc, fresh_client = fresh
    count = _count(svc, EXPORTS)
    docs = [{"sparql": EXPORTS, "limit": limit} for limit in (count + 1, count)]
    limited = _answers(fresh_client, "/v1/query", docs)
    assert [outcome for outcome, _ in limited] == ["miss", "hit"]
    svc.result_cache.clear()  # the null answer gets an evaluation of its own
    [(outcome, null)] = _answers(
        fresh_client, "/v1/query", [{"sparql": EXPORTS, "limit": None}]
    )
    assert outcome == "miss" and null["count"] == count
    for _, result in limited:
        for field in ("rows", "count", "truncated"):
            assert result[field] == null[field], field


def test_batch_with_mixed_limits(fresh):
    svc, fresh_client = fresh
    queries = [CREATED, EXPORTS]
    expected = [_count(svc, q) for q in queries]
    answers = _answers(fresh_client, "/v1/query", [{"sparql": CREATED, "limit": 3}])
    batches = _answers(fresh_client, "/v1/batch", [
        {"queries": queries, "limit": 2},
        {"queries": queries, "limit": None},
        {"queries": queries, "limit": 5},
    ])
    assert answers[0][0] == "miss"
    assert [[outcome for outcome, _ in batch] for batch in batches] == [
        ["hit", "miss"], ["miss", "miss"], ["hit", "hit"],
    ]
    full = [result["rows"] for _, result in batches[1]]
    for batch, limit in zip(batches, (2, None, 5)):
        for (_, result), rows, count in zip(batch, full, expected):
            assert result["count"] == count
            assert result["rows"] == rows[:limit]
            assert result["truncated"] is (len(rows[:limit]) < count)


def _memo(fresh_client) -> dict:
    return fresh_client.get("/v1/stats")[1]["http"]["request_memo"]


def test_timeout_header_is_part_of_what_is_memoized(fresh):
    """One body under two ``X-Repro-Timeout`` values is two requests:
    the impossible budget times out, the generous one answers."""
    _svc, fresh_client = fresh
    body = json.dumps(
        {"sparql": "select ?a where { ?a hasWonPrize ?b . ?a diedIn ?c }"}
    ).encode()
    for header, want in (("0.000001", 504), ("30", 200), ("junk", 400),
                         ("junk", 400)):
        status, _reply = fresh_client.post_raw(
            "/v1/query", body, headers={"X-Repro-Timeout": header}
        )
        assert status == want
    memo = _memo(fresh_client)
    # The two well-formed headers were stored, the malformed one never.
    assert (memo["hits"], memo["misses"], memo["size"]) == (0, 4, 2)


def test_a_refused_body_is_parsed_and_refused_again(fresh):
    _svc, fresh_client = fresh
    replies = [
        fresh_client.post_raw("/v1/query", b'{"sparql": "select ?x where {"}')
        for _ in range(2)
    ]
    assert replies[0] == replies[1]
    assert replies[0][0] == 400
    assert json.loads(replies[0][1])["error"]["code"] == "parse_error"
    memo = _memo(fresh_client)
    assert (memo["hits"], memo["misses"], memo["size"]) == (0, 2, 0)


@pytest.mark.parametrize("from_snapshot", [False, True], ids=["memory", "snapshot"])
def test_a_lone_surrogate_term_matches_nothing(tmp_path, mini_yago, from_snapshot):
    """A term no UTF-8 record can hold is simply not in the dictionary,
    whether that is the eager one or the mapped one of a snapshot."""
    from repro.server import serve_in_background
    from repro.service import QueryService
    from repro.storage import MmapDictionary, save_snapshot

    from _http_client import Client

    if from_snapshot:
        save_snapshot(mini_yago, tmp_path / "snap")
        service = QueryService.from_snapshot(tmp_path / "snap", backend="columnar")
        assert isinstance(service.store.dictionary, MmapDictionary)
    else:
        service = QueryService(mini_yago)
    with service, serve_in_background(service) as handle:
        client = Client(handle.address)
        try:
            status, payload, _ = client.post(
                "/v1/query", {"sparql": 'select ?a where { ?a created "x\ud800" }'}
            )
        finally:
            client.close()
    assert status == 200, payload
    assert payload["result"]["count"] == 0
