"""The memory-footprint claim (§5).

"The answer-graph approach requires a much smaller memory footprint,
which can be beneficial for traditional database systems that heavily
use secondary storage."

Wireframe's working set is the answer graph (|AG| pairs); the
materializing baselines hold their largest intermediate relation.
Recorded on the Table-1 workload — the footprint ratio is the paper's
claim in numbers — and the AG must never exceed the materializers'
peaks.

(The storage backends' resident index bytes — columnar at least 30%
under hashdict — are a count, asserted in tier-1:
``tests/graph/test_backends.py::test_columnar_index_bytes_smaller_than_hashdict``;
``benchmarks/e2e`` reports ``graph.*.index_bytes_per_triple``.)
"""

from __future__ import annotations

import pytest

from repro.baselines import ColumnarEngine, HashJoinEngine, IndexNestedLoopEngine
from repro.core.engine import WireframeEngine
from repro.datasets.paper_queries import paper_diamond_queries, paper_snowflake_queries

QUERIES = {q.name: q for q in paper_snowflake_queries() + paper_diamond_queries()}


@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_footprint_wireframe_vs_materializers(benchmark, store, catalog, query_name):
    query = QUERIES[query_name]
    wf = WireframeEngine(store, catalog)
    pg = HashJoinEngine(store, catalog)

    result = benchmark.pedantic(
        lambda: wf.evaluate(query, materialize=False),
        rounds=2, iterations=1, warmup_rounds=1,
    )
    ag_size = result.stats["ag_size"]
    pg_peak = pg.evaluate(query, materialize=False).stats["peak_intermediate"]
    benchmark.extra_info["ag_size"] = ag_size
    benchmark.extra_info["pg_peak_intermediate"] = pg_peak
    benchmark.extra_info["footprint_ratio"] = pg_peak / max(ag_size, 1)


def test_ag_never_larger_than_materialized_peaks(store, catalog):
    """On every Table-1 query the AG working set is at most the row- and
    column-engines' peak intermediates (and usually far below)."""
    wf = WireframeEngine(store, catalog)
    pg = HashJoinEngine(store, catalog)
    md = ColumnarEngine(store, catalog)
    vt = IndexNestedLoopEngine(store, catalog)
    smaller_somewhere = 0
    for query in QUERIES.values():
        ag_size = wf.evaluate(query, materialize=False).stats["ag_size"]
        peaks = [
            engine.evaluate(query, materialize=False).stats["peak_intermediate"]
            for engine in (pg, md, vt)
        ]
        assert ag_size <= max(peaks), query.name
        if ag_size * 2 < min(peaks):
            smaller_somewhere += 1
    assert smaller_somewhere >= 5  # a clear majority of the workload
