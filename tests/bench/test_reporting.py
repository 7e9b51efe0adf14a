"""Tests for benchmark report formatting."""

from repro.bench.harness import QueryTiming
from repro.bench.reporting import comparison_table


def timing(engine, query, seconds, count=5):
    return QueryTiming(engine=engine, query=query, seconds=seconds, count=count)


def make_results():
    return {
        ("WF", "Q1"): timing("WF", "Q1", 1.0),
        ("PG", "Q1"): timing("PG", "Q1", 4.0),
        ("WF", "Q2"): timing("WF", "Q2", 2.0),
        ("PG", "Q2"): QueryTiming("PG", "Q2", None, None),  # timeout
    }


def test_comparison_table_seconds():
    text = comparison_table(make_results(), ["PG", "WF"], ["Q1", "Q2"])
    assert "Q1" in text and "4.000" in text
    assert "*" in text  # the timeout


def test_comparison_table_counts():
    text = comparison_table(
        make_results(), ["PG", "WF"], ["Q1"], metric="count"
    )
    assert "5" in text


def test_comparison_table_missing_cell():
    text = comparison_table(make_results(), ["NJ"], ["Q1"])
    assert "-" in text

