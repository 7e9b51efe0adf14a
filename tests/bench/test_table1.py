"""Tests for the Table-1 reproduction harness (on a tiny dataset)."""

import pytest

from repro.bench.harness import BenchmarkProtocol
from repro.bench.table1 import format_table1, reproduce_table1


@pytest.fixture(scope="module")
def rows(request):
    from repro.datasets.yago_like import generate_yago_like

    store = generate_yago_like(scale=0.1, seed=5)
    return reproduce_table1(
        store=store,
        protocol=BenchmarkProtocol(runs=1, discard=0, timeout=30),
    )


def test_ten_rows(rows):
    assert len(rows) == 10
    assert [r.index for r in rows] == list(range(1, 11))


def test_shapes_split(rows):
    assert [r.shape for r in rows[:5]] == ["snowflake"] * 5
    assert [r.shape for r in rows[5:]] == ["diamond"] * 5


def test_every_engine_timed(rows):
    for row in rows:
        assert set(row.times) == {"PG", "WF", "VT", "MD", "NJ"}


def test_ag_and_embedding_metrics_present(rows):
    for row in rows:
        assert row.ag_size is not None and row.ag_size >= 0
        assert row.embeddings is not None and row.embeddings >= 1  # witnesses


def test_walks_with_and_without_lookahead(rows):
    """Both phase-1 settings are reported per query (they left the same
    |AG|, or `reproduce_table1` would have raised)."""
    for row in rows:
        assert row.walks is not None and row.walks_paper is not None
    assert sum(r.walks for r in rows) < sum(r.walks_paper for r in rows)


def test_engine_counts_consistent(rows):
    # All engines returned the same count (via the shared `embeddings`).
    for row in rows:
        assert row.embeddings is not None


def test_format_table1_renders_both_sections(rows):
    text = format_table1(rows)
    assert "|iAG|" in text
    assert "|AG|" in text
    assert "|Embeddings|" in text
    assert "walks (paper)" in text
    assert "diedIn/influences" in text


def test_subset_by_shape_and_index():
    from repro.datasets.yago_like import generate_yago_like

    store = generate_yago_like(scale=0.1, seed=5)
    rows = reproduce_table1(
        store=store,
        protocol=BenchmarkProtocol(runs=1, discard=0, timeout=30),
        shapes=("diamond",),
        query_indexes=(7,),
        engines=("WF",),
    )
    assert len(rows) == 1
    assert rows[0].index == 7
    assert set(rows[0].times) == {"WF"}
