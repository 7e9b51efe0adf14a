"""Golden schema of the two stats surfaces: ``/v1/stats`` and ``/metrics``.

Dashboards and scrapers key on these shapes, so a refactor of how the
service records its facts must leave them byte-for-byte compatible in
structure:

- every ``/v1/stats`` key and the JSON type of every leaf value;
- every ``/metrics`` family's name, kind and label names, and the label
  sets of the samples a freshly started server exposes (the process-wide
  ``repro_gc_*`` collector families included).

Both are pinned for a plain in-memory service and for a journaled
``QueryService.from_snapshot(..., wal=True)`` service, which adds the
``wal`` block, the snapshot gauges and the ``repro_wal_*`` families.
"""

from __future__ import annotations

import pytest

from repro.obs.exposition import parse_exposition
from repro.obs.metrics import merged_dump
from repro.server import serve_in_background
from repro.service import QueryService

from _http_client import Client

PHASES = ("queue", "plan", "exec", "total")
DIGEST_FIELDS = ("count", "mean", "p50", "p90", "p99", "samples", "window_size")
CACHE_FIELDS = {
    "evictions": "int", "hit_rate": "float", "hits": "int", "lookups": "int",
    "maxsize": "int", "misses": "int", "size": "int", "stale_drops": "int",
}

#: ``/v1/stats`` leaves shared by every service: ``dotted.path -> type``.
COMMON_STATS = {
    "api_version": "str",
    "http.draining": "bool",
    "http.in_flight": "int",
    "http.max_pending": "int",
    "http.recent_trace_ids": "list",
    "http.request_memo.hits": "int",
    "http.request_memo.maxsize": "int",
    "http.request_memo.misses": "int",
    "http.request_memo.size": "int",
    "http.requests": "int",
    "http.result_fragments.rendered": "int",
    "http.result_fragments.reused": "int",
    "http.service_swaps": "int",
    "http.services_draining": "int",
    "http.shed": "int",
    "http.traces_buffered": "int",
    "service.backend": "str",
    "service.catalog_refreshes.delta": "int",
    "service.catalog_refreshes.full": "int",
    "service.coalesced": "int",
    "service.completed": "int",
    "service.degraded": "bool",
    "service.epoch": "int",
    "service.failures": "int",
    "service.in_flight": "int",
    "service.max_workers": "int",
    "service.queue_depth": "int",
    "service.queued": "int",
    "service.read_only": "bool",
    "service.result_cache_short_circuits": "int",
    "service.running": "int",
    "service.store_triples": "int",
    "service.timeouts": "int",
    **{
        f"service.latency_seconds.{phase}.{field}": "float"
        for phase in PHASES
        for field in DIGEST_FIELDS
    },
    **{
        f"service.{cache}.{field}": kind
        for cache in ("plan_cache", "result_cache")
        for field, kind in CACHE_FIELDS.items()
    },
}

PLAIN_STATS = {
    **COMMON_STATS,
    "service.snapshot.generation": "null",
    "service.snapshot.path": "null",
}

WAL_STATS = {
    **COMMON_STATS,
    "service.snapshot.generation": "int",
    "service.snapshot.path": "str",
    "service.wal.absorbed": "int",
    "service.wal.append_failures": "int",
    "service.wal.appended": "int",
    "service.wal.compactions": "int",
    "service.wal.compactor_running": "bool",
    "service.wal.degraded": "bool",
    "service.wal.durable_seq": "int",
    "service.wal.fsync": "str",
    "service.wal.fsyncs": "int",
    "service.wal.generation": "int",
    "service.wal.group_commits": "int",
    "service.wal.last_seq": "int",
    "service.wal.path": "str",
    "service.wal.records": "int",
    "service.wal.rollbacks": "int",
    "service.wal.size_bytes": "int",
}

#: One unlabeled sample.
BARE = ((),)
#: ``family -> (kind, label names, zero-state sample label sets)``.
COMMON_METRICS = {
    **{
        f"repro_cache_{name}": (
            kind, ("cache",), ((("cache", "plan"),), (("cache", "result"),))
        )
        for name, kind in (
            ("evictions_total", "counter"),
            ("hits_total", "counter"),
            ("lookups_total", "counter"),
            ("size", "gauge"),
            ("stale_drops_total", "counter"),
        )
    },
    "repro_cache_result_fragments_total": (
        "counter", ("outcome",),
        ((("outcome", "rendered"),), (("outcome", "reused"),)),
    ),
    "repro_catalog_refreshes_total": (
        "counter", ("kind",), ((("kind", "delta"),), (("kind", "full"),)),
    ),
    "repro_gc_collections_total": (
        "counter", ("generation",),
        ((("generation", "0"),), (("generation", "1"),), (("generation", "2"),)),
    ),
    "repro_gc_pause_seconds": ("histogram", (), BARE),
    "repro_gc_promotions_total": ("counter", (), BARE),
    "repro_http_draining": ("gauge", (), BARE),
    "repro_http_in_flight": ("gauge", (), BARE),
    "repro_http_request_memo_lookups_total": (
        "counter", ("outcome",),
        ((("outcome", "hit"),), (("outcome", "miss"),)),
    ),
    "repro_http_request_memo_size": ("gauge", (), BARE),
    "repro_http_request_seconds": ("histogram", ("route",), ()),
    "repro_http_requests_total": ("counter", ("route", "status"), ()),
    "repro_http_service_swaps_total": ("counter", (), BARE),
    "repro_http_shed_total": ("counter", (), BARE),
    "repro_http_traces_buffered": ("gauge", (), BARE),
    "repro_service_coalesced_total": ("counter", (), BARE),
    "repro_service_compactions_total": ("counter", (), BARE),
    "repro_service_degraded": ("gauge", (), BARE),
    "repro_service_degraded_probes_total": (
        "counter", ("outcome",),
        ((("outcome", "failed"),), (("outcome", "ok"),)),
    ),
    "repro_service_in_flight": ("gauge", (), BARE),
    "repro_service_queries_total": (
        "counter", ("outcome",),
        (
            (("outcome", "error"),),
            (("outcome", "ok"),),
            (("outcome", "timeout"),),
        ),
    ),
    "repro_service_queue_depth": ("gauge", (), BARE),
    "repro_service_result_cache_short_circuits_total": ("counter", (), BARE),
    "repro_service_stage_seconds": ("histogram", ("stage",), ()),
    "repro_store_epoch": ("gauge", (), BARE),
    "repro_store_triples": ("gauge", (), BARE),
}

WAL_METRICS = {
    **COMMON_METRICS,
    "repro_snapshot_generation": ("gauge", (), BARE),
    **{
        f"repro_wal_{name}": (kind, (), BARE)
        for name, kind in (
            ("absorbed_total", "counter"),
            ("append_failures_total", "counter"),
            ("appends_total", "counter"),
            ("durable_seq", "gauge"),
            ("fsyncs_total", "counter"),
            ("group_commits_total", "counter"),
            ("records", "gauge"),
            ("rollbacks_total", "counter"),
            ("size_bytes", "gauge"),
        )
    },
}


def _json_type(value) -> str:
    if value is None:
        return "null"
    return type(value).__name__


def stats_schema(payload, prefix: str = "") -> dict:
    """``dotted.path -> JSON type`` for every leaf of a decoded document."""
    if not isinstance(payload, dict):
        return {prefix: _json_type(payload)}
    schema = {}
    for key, value in payload.items():
        schema.update(stats_schema(value, f"{prefix}.{key}" if prefix else key))
    return schema


def metrics_schema(text: str, registries) -> dict:
    """``family -> (kind, label names, sample label sets)`` of a scrape.

    Kinds and sample label sets come from the wire; label names from the
    registries' dumps, since a labeled family with no samples yet shows
    none on the wire.
    """
    families = parse_exposition(text)
    described = {metric["name"]: metric for metric in merged_dump(*registries)}
    assert set(families) == set(described)
    schema = {}
    for name, family in families.items():
        assert family["type"] == described[name]["kind"]
        label_sets = {
            tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            for _series, labels, _value in family["samples"]
        }
        schema[name] = (
            family["type"],
            tuple(described[name]["labelnames"]),
            tuple(sorted(label_sets)),
        )
    return schema


def check_schema(service, sparql, expected_stats, expected_metrics):
    with serve_in_background(service) as handle:
        client = Client(handle.address)
        try:
            # The first request a fresh server sees: the zero state.
            status, text, _ = client.get_text("/metrics")
            assert status == 200
            assert metrics_schema(
                text, (handle.server.metrics, service.metrics)
            ) == expected_metrics
            idle = client.get("/v1/stats")[1]
            for _ in range(2):  # a miss, then a hit
                assert client.post("/v1/query", {"sparql": sparql})[0] == 200
            busy = client.get("/v1/stats")[1]
        finally:
            client.close()
    assert stats_schema(idle) == expected_stats
    assert stats_schema(busy) == expected_stats


def test_plain_service_schema(mini_yago, mini_yago_catalog):
    with QueryService(mini_yago, catalog=mini_yago_catalog) as service:
        check_schema(
            service,
            "select ?a, ?b where { ?a created ?b }",
            PLAIN_STATS,
            COMMON_METRICS,
        )


def test_journaled_service_schema(tmp_path):
    service = QueryService.from_snapshot(tmp_path / "snap", wal=True)
    try:
        service.store.add_term_triples([("a", "p", "b"), ("b", "p", "c")])
        check_schema(
            service,
            "select ?x, ?y where { ?x p ?y }",
            WAL_STATS,
            WAL_METRICS,
        )
    finally:
        service.close()


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
