"""End-to-end integration: the full offline → online workflow.

Exercises the complete user journey the README describes on one tiny
deterministic dataset: generate → snapshot → reload with its catalog →
mine queries → evaluate with every engine → regenerate a Table-1 row —
asserting cross-stage consistency at each hand-off.
"""

import pytest

from repro import (
    ColumnarEngine,
    HashJoinEngine,
    IndexNestedLoopEngine,
    NavigationalEngine,
    QueryMiner,
    WireframeEngine,
    count_embeddings,
    generate_yago_like,
)
from repro.bench.harness import BenchmarkProtocol
from repro.bench.table1 import reproduce_table1
from repro.core.ideal import enumerate_embeddings_bruteforce
from repro.datasets.loader import load_dataset
from repro.query.shapes import QueryShape, classify_shape
from repro.query.templates import snowflake_template
from repro.storage import save_snapshot


@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("dataset") / "snap")
    original = generate_yago_like(scale=0.1, seed=13)
    save_snapshot(original, directory)
    store, catalog = load_dataset(directory)
    return original, directory, store, catalog


def test_reload_is_identical(workflow):
    original, _, store, _ = workflow
    assert store.num_triples == original.num_triples
    assert set(store.triples()) == set(original.triples())


def test_mined_query_agrees_across_all_engines(workflow):
    _, _, store, catalog = workflow
    miner = QueryMiner(store, seed=5, forbidden_labels=["rdf:type"])
    query = miner.mine(snowflake_template(), count=1)[0]
    assert classify_shape(query) == QueryShape.SNOWFLAKE

    oracle = sorted(enumerate_embeddings_bruteforce(store, query))
    engines = [
        WireframeEngine(store, catalog),
        HashJoinEngine(store, catalog),
        IndexNestedLoopEngine(store, catalog),
        ColumnarEngine(store, catalog),
        NavigationalEngine(store, catalog),
    ]
    for engine in engines:
        assert sorted(engine.evaluate(query).rows) == oracle

    # Counting on the answer graph, without building rows, agrees too.
    detail = WireframeEngine(store, catalog).evaluate_detailed(
        query, materialize=False
    )
    assert count_embeddings(detail.answer_graph) == len(oracle)


def test_table1_row_from_reloaded_dataset(workflow):
    _, _, store, _ = workflow
    rows = reproduce_table1(
        store=store,
        protocol=BenchmarkProtocol(runs=1, discard=0, timeout=30),
        shapes=("diamond",),
        query_indexes=(8,),
    )
    assert len(rows) == 1
    row = rows[0]
    assert row.embeddings is not None and row.embeddings >= 1
    assert all(seconds is not None for seconds in row.times.values())


def test_cli_query_against_saved_dataset(workflow, capsys):
    from repro.cli import main

    _, directory, _, _ = workflow
    code = main(
        [
            "query",
            "--snapshot", directory,
            "--sparql", "select ?x, ?m where { ?x actedIn ?m }",
            "--limit", "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "rows in" in out and "Person:" in out
