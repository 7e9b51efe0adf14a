"""Zero-dependency observability: tracing, metrics, structured logs.

The substrate every serving layer reports through (ISSUE 9):

* :mod:`repro.obs.trace` — per-request traces with stage spans, carried
  across the event loop / worker-thread boundary by a contextvar, plus
  the ring buffer ``/v1/stats`` exposes recent trace ids from;
* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket
  log-scaled histograms in per-owner registries, with JSON-able dumps
  that aggregate across prefork workers;
* :mod:`repro.obs.exposition` — Prometheus text rendering
  (``GET /metrics``) and the strict line-grammar parser the tests, the
  CI smoke test, and ``examples/metrics_scrape.py`` all validate with;
* :mod:`repro.obs.logging` — a JSON-lines logger and the slow-query
  log behind ``repro serve --slow-query-ms``;
* :mod:`repro.obs.gc_metrics` — the cyclic collector's collections and
  pause times, from one process-wide ``gc.callbacks`` hook, and the
  evaluations whose rows were promoted past its young generation.

This package is deliberately a leaf: it imports nothing from the rest
of :mod:`repro`, so the engine, service, storage, and server layers can
all hook into it without cycles.
"""

from repro.obs.exposition import (
    CONTENT_TYPE,
    parse_exposition,
    render_dump,
    render_registries,
    sample_value,
)
from repro.obs.gc_metrics import register_gc_metrics
from repro.obs.logging import JsonLogger, SlowQueryLog
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    aggregate_dumps,
    merged_dump,
)
from repro.obs.trace import (
    Trace,
    TraceBuffer,
    activate_trace,
    current_trace,
    deactivate_trace,
    new_trace_id,
    sanitize_trace_id,
    trace_span,
)

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonLogger",
    "MetricsRegistry",
    "SlowQueryLog",
    "Trace",
    "TraceBuffer",
    "activate_trace",
    "aggregate_dumps",
    "current_trace",
    "deactivate_trace",
    "merged_dump",
    "new_trace_id",
    "parse_exposition",
    "register_gc_metrics",
    "render_dump",
    "render_registries",
    "sample_value",
    "sanitize_trace_id",
    "trace_span",
]
