#!/usr/bin/env python3
"""Observability end to end: traces, /metrics, and the slow-query log.

Run:  python examples/metrics_scrape.py

Starts a server over a small graph, sends traced requests (one with a
client-chosen ``X-Repro-Trace-Id``, one asking for ``include_trace``),
scrapes ``GET /metrics``, and validates the exposition body with the
library's own strict parser — the same check CI's scrape smoke test
runs. Exits non-zero if anything the dashboard stack depends on is
missing or malformed.
"""

import io
import json
import sys
import urllib.request

from repro import QueryService, generate_yago_like, serve_in_background
from repro.obs.exposition import parse_exposition, sample_value
from repro.obs.logging import JsonLogger

failures = 0


def check(label: str, ok: bool) -> None:
    global failures
    print(f"  {'ok' if ok else 'FAIL'}  {label}")
    if not ok:
        failures += 1


# ----------------------------------------------------------------------
# 1. A server with the full observability surface on: request tracing
#    (always on by default), a slow-query log with a 1 ms threshold,
#    and JSON-lines lifecycle logging into a buffer we can inspect.
# ----------------------------------------------------------------------
store = generate_yago_like(scale=0.3, seed=7)
store.freeze()
log_stream = io.StringIO()

with QueryService(store) as service, serve_in_background(
    service,
    slow_query_seconds=0.001,
    logger=JsonLogger(log_stream),
) as handle:
    print(f"serving {store} at {handle.url}\n")

    # ------------------------------------------------------------------
    # 2. A traced request. The client picks the trace id (any 1-64
    #    chars of [A-Za-z0-9._-]); the server adopts it, carries it
    #    through parse -> queue -> plan -> engine, and echoes it back.
    #    include_trace additionally returns the per-stage spans.
    # ------------------------------------------------------------------
    body = json.dumps({
        "sparql": "select ?a, ?m where { ?a actedIn ?m . ?a wasBornIn ?c }",
        "include_trace": True,
        "limit": 3,
    }).encode()
    request = urllib.request.Request(
        handle.url + "/v1/query",
        data=body,
        headers={"X-Repro-Trace-Id": "example-scrape-001"},
    )
    with urllib.request.urlopen(request) as response:
        echoed = response.headers["X-Repro-Trace-Id"]
        answer = json.load(response)

    print("traced request:")
    check("trace id echoed in X-Repro-Trace-Id header",
          echoed == "example-scrape-001")
    trace = answer.get("trace") or {}
    check("include_trace returned the span breakdown",
          trace.get("trace_id") == "example-scrape-001")
    print(f"    total {trace.get('total_ms', 0.0):.3f} ms")
    for span in trace.get("spans", []):
        marker = "  (nested)" if span["nested"] else ""
        print(f"    {span['name']:<12} start {span['start_ms']:8.3f} ms   "
              f"dur {span['duration_ms']:8.3f} ms{marker}")
    stages = {s["name"] for s in trace.get("spans", [])}
    check("pipeline stages all spanned",
          {"parse", "queue_wait", "plan"}.issubset(stages))

    # A second, un-traced-by-us request so counters move past 1.
    with urllib.request.urlopen(
        handle.url + "/v1/query",
        data=json.dumps({"sparql": "select ?a, ?b where { ?a created ?b }"})
        .encode(),
    ) as response:
        json.load(response)

    # ------------------------------------------------------------------
    # 3. Scrape GET /metrics and hold it to the letter of the
    #    Prometheus text format with the strict parser.
    # ------------------------------------------------------------------
    with urllib.request.urlopen(handle.url + "/metrics") as response:
        content_type = response.headers["Content-Type"]
        text = response.read().decode("utf-8")

    print("\nscrape:")
    check("Content-Type names exposition 0.0.4",
          "version=0.0.4" in content_type)
    try:
        families = parse_exposition(text)
    except ValueError as exc:
        check(f"exposition strict-parses ({exc})", False)
        families = {}
    else:
        check(f"exposition strict-parses ({len(families)} families)", True)

    served = sample_value(families, "repro_http_requests_total",
                          {"route": "/v1/query", "status": "200"})
    check("repro_http_requests_total counted both queries",
          (served or 0) >= 2)
    check("request latency histogram present",
          families.get("repro_http_request_seconds", {}).get("type")
          == "histogram")
    check("service stage histogram observed the pipeline",
          (sample_value(families, "repro_service_stage_seconds_count",
                        {"stage": "total"}) or 0) >= 2)
    triples = sample_value(families, "repro_store_triples")
    check("store gauges exported", triples == store.num_triples)
    check("collector families exported",
          {"repro_gc_collections_total", "repro_gc_pause_seconds",
           "repro_gc_promotions_total"} <= set(families))

    # A counter never falls: scrape again and compare the collections
    # and the promotions.
    def collections(families) -> list:
        return [sample_value(families, "repro_gc_collections_total",
                             {"generation": g}) or 0 for g in "012"]

    def promotions(families) -> float:
        return sample_value(families, "repro_gc_promotions_total") or 0

    with urllib.request.urlopen(handle.url + "/metrics") as response:
        again = parse_exposition(response.read().decode("utf-8"))
    check("repro_gc_collections_total did not fall between scrapes",
          all(b >= a for a, b in zip(collections(families),
                                     collections(again))))
    check("repro_gc_promotions_total did not fall between scrapes",
          promotions(again) >= promotions(families))

    print("\n  a few series, as a scraper sees them:")
    for name in ("repro_http_in_flight", "repro_store_triples",
                 "repro_service_queries_total"):
        family = families.get(name)
        if family is None:
            continue
        for series_name, labels, value in family["samples"][:3]:
            rendered = ",".join(f'{k}="{v}"' for k, v in labels.items())
            rendered = f"{{{rendered}}}" if rendered else ""
            print(f"    {series_name}{rendered} {value}")

# ----------------------------------------------------------------------
# 4. The slow-query log (threshold 1 ms): every line is one JSON
#    object carrying the trace id and the stage breakdown.
# ----------------------------------------------------------------------
print("\nslow-query log:")
slow = [json.loads(line) for line in log_stream.getvalue().splitlines()
        if json.loads(line)["event"] == "slow_query"]
check("slow requests were logged", len(slow) >= 1)
if slow:
    record = slow[0]
    check("slow record carries its trace id", "trace_id" in record)
    print(f"    trace {record['trace_id']}: {record['total_ms']} ms, "
          f"stages {record['stages_ms']}")

print()
if failures:
    print(f"{failures} check(s) FAILED")
    sys.exit(1)
print("all checks passed")
