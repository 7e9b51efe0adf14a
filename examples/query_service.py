#!/usr/bin/env python3
"""Serving traffic: the concurrent QueryService over one frozen store.

Run:  python examples/query_service.py

Instead of constructing a WireframeEngine per query (the seed's usage
pattern), a long-lived QueryService owns the store, builds the
statistics catalog exactly once, and serves a whole workload through a
thread pool with plan caching, result caching, and in-flight request
coalescing. This example replays a template-heavy workload — the same
query shapes asked about different entities, plus literal repeats —
then prints the service's own telemetry: ``service.snapshot()``, the
``/v1/stats`` view of the counters and stage-latency histogram the
service records in ``service.metrics`` (the registry ``/metrics``
renders).
"""

import time

from repro import QueryService, WireframeEngine, generate_yago_like, parse_query
from repro.cli import format_stats

# ----------------------------------------------------------------------
# 1. Offline prep: one YAGO-like store, frozen for serving.
# ----------------------------------------------------------------------
store = generate_yago_like(scale=0.3, seed=7)
store.freeze()
print(f"data graph: {store}")

# ----------------------------------------------------------------------
# 2. A repeat-heavy workload: one template, many entities, many repeats.
# ----------------------------------------------------------------------
probe = parse_query("select ?actor, ?movie where { ?actor actedIn ?movie }")
rows = WireframeEngine(store).evaluate(probe).rows
decode = store.dictionary.decode
movies = sorted({decode(r[1]) for r in rows})[:8]

workload = [
    parse_query(f"select ?actor where {{ ?actor actedIn {movie} }}")
    for movie in movies
] * 10  # 80 queries, 8 distinct
print(f"workload: {len(workload)} queries over {len(movies)} templates")

# ----------------------------------------------------------------------
# 3. Serve it. submit() returns futures; evaluate_many batches them.
# ----------------------------------------------------------------------
with QueryService(store, max_workers=4) as service:
    t0 = time.perf_counter()
    results = service.evaluate_many(workload, deadlines=30.0)
    elapsed = time.perf_counter() - t0

    print(f"\n{len(results)} answers in {elapsed:.3f}s "
          f"({len(results) / elapsed:.0f} queries/s)")
    for movie, result in zip(movies, results):
        svc = result.stats["service"]
        print(f"  {movie:<28} {result.count:>4} actors   "
              f"plan={svc['plan_cache']:<6} result={svc['result_cache']}")

    print("\nservice telemetry:")
    print(format_stats(service.snapshot()))
