"""Report formatting helpers for benchmark output."""

from __future__ import annotations

from repro.bench.harness import QueryTiming
from repro.utils.tables import TextTable


def comparison_table(
    results: dict[tuple[str, str], QueryTiming],
    engines: list[str],
    queries: list[str],
    metric: str = "seconds",
) -> str:
    """Render a query × engine grid of a timing metric.

    ``metric`` is ``"seconds"`` (``*`` for timeouts) or ``"count"``.
    """
    table = TextTable(["query", *engines], float_format="{:.3f}")
    for query in queries:
        cells: list[object] = [query]
        for engine in engines:
            timing = results.get((engine, query))
            if timing is None:
                cells.append("-")
            elif metric == "seconds":
                cells.append(timing.seconds)
            elif metric == "count":
                cells.append(timing.count)
            else:
                cells.append(timing.stats.get(metric, "-"))
        table.add_row(cells)
    return table.render()

