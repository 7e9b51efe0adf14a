"""Reproduction of the paper's Table 1.

For each of the ten mined queries (5 snowflake, 5 diamond), runs all
five systems under the warm-cache protocol and reports, per row:
execution time per engine (``*`` on timeout), the answer-graph size
(|iAG| for the acyclic snowflakes; |AG| — non-ideal, node burnback
only — for the diamonds, exactly as the paper's Wireframe
configuration), the embedding count, and phase 1's edge walks — as
the engine runs by default (``walks``) and as the paper's phase 1,
without look-ahead, does (``walks (paper)``); both leave the same AG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.harness import BenchmarkProtocol, run_query
from repro.bench.workloads import (
    ENGINE_ORDER,
    bench_protocol,
    benchmark_catalog,
    default_engines,
    make_benchmark_store,
)
from repro.core.engine import WireframeEngine
from repro.core.generation import generate_answer_graph
from repro.datasets.paper_queries import paper_diamond_queries, paper_snowflake_queries
from repro.errors import EvaluationError
from repro.graph.store import TripleStore
from repro.query.model import ConjunctiveQuery
from repro.utils.tables import TextTable


@dataclass
class Table1Row:
    """One row of the reproduced Table 1."""

    index: int
    query: str
    labels: str
    shape: str  # "snowflake" | "diamond"
    times: dict[str, float | None] = field(default_factory=dict)
    ag_size: int | None = None
    embeddings: int | None = None
    walks: int | None = None
    walks_paper: int | None = None  # lookahead=False


def _ag_metrics(
    store: TripleStore, query: ConjunctiveQuery, catalog
) -> tuple[int, int, int, int]:
    """(|AG|, |embeddings|, edge walks, edge walks without look-ahead)
    measured with the paper's WF configuration (no edge burnback, so
    diamond AGs are the non-ideal ones). The paper's count is one more
    phase 1 along the same plan, nothing else run twice."""
    engine = WireframeEngine(store, catalog)
    prepared = engine.plan(query)
    result = engine.evaluate_detailed(query, materialize=False, prepared=prepared)
    bound, ag_plan, chordification = prepared
    paper_ag, paper = generate_answer_graph(
        bound, ag_plan, chordification=chordification, lookahead=False
    )
    if result.ag_size != paper_ag.size:
        raise EvaluationError(
            f"{query.name}: |AG| {result.ag_size} with look-ahead, "
            f"{paper_ag.size} without"
        )
    return (
        result.ag_size,
        result.count,
        result.generation_stats.edge_walks,
        paper.edge_walks,
    )


def reproduce_table1(
    store: TripleStore | None = None,
    engines: tuple[str, ...] = ENGINE_ORDER,
    protocol: BenchmarkProtocol | None = None,
    shapes: tuple[str, ...] = ("snowflake", "diamond"),
    query_indexes: tuple[int, ...] | None = None,
) -> list[Table1Row]:
    """Run (a subset of) the Table-1 grid; returns one row per query.

    ``query_indexes`` filters by the 1-based Table-1 row number.
    """
    catalog = None
    if store is None:
        store = make_benchmark_store()
        catalog = benchmark_catalog()
    if protocol is None:
        protocol = bench_protocol()
    engine_objects = default_engines(store, catalog, names=engines)
    if catalog is None:
        catalog = engine_objects[0].catalog  # type: ignore[attr-defined]

    queries: list[tuple[int, str, ConjunctiveQuery]] = []
    if "snowflake" in shapes:
        for i, q in enumerate(paper_snowflake_queries(), start=1):
            queries.append((i, "snowflake", q))
    if "diamond" in shapes:
        for i, q in enumerate(paper_diamond_queries(), start=6):
            queries.append((i, "diamond", q))
    if query_indexes is not None:
        queries = [entry for entry in queries if entry[0] in query_indexes]

    rows: list[Table1Row] = []
    for index, shape, query in queries:
        row = Table1Row(
            index=index,
            query=query.name or f"Q{index}",
            labels="/".join(e.predicate for e in query.edges),
            shape=shape,
        )
        for engine in engine_objects:
            timing = run_query(engine, query, protocol)
            row.times[engine.name] = timing.seconds
            if timing.count is not None:
                row.embeddings = timing.count
        row.ag_size, ag_count, row.walks, row.walks_paper = _ag_metrics(
            store, query, catalog
        )
        if row.embeddings is None:
            row.embeddings = ag_count
        rows.append(row)
    return rows


def format_table1(rows: list[Table1Row], engines: tuple[str, ...] = ENGINE_ORDER) -> str:
    """Render rows in the paper's Table-1 layout."""
    sections = []
    for shape, ag_header in (("snowflake", "|iAG|"), ("diamond", "|AG|")):
        shape_rows = [r for r in rows if r.shape == shape]
        if not shape_rows:
            continue
        table = TextTable(
            ["#", f"{shape} query", *engines, ag_header, "|Embeddings|",
             "walks", "walks (paper)"]
        )
        for row in shape_rows:
            table.add_row(
                [
                    row.index,
                    row.labels,
                    *[row.times.get(e) for e in engines],
                    row.ag_size,
                    row.embeddings,
                    row.walks,
                    row.walks_paper,
                ]
            )
        sections.append(table.render())
    return "\n\n".join(sections)
