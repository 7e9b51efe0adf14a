"""Phase 2 at the benchmark fixture's scale, in the reference order.

``generate_yago_like(scale=2.0, seed=0)`` gives answer graphs whose
buckets hold node ids far above their sets' table sizes, so set
iteration order depends on insertion order; the small stores of the
tier-1 suite rarely reach that. Two sets of queries run through
:class:`WireframeEngine`: the ten paper queries, and the
``write_read_mix`` benchmark's two path probes after 64 of its write
batches (16-edge paths over one predicate, an add per cycle and on
every 4th cycle the removal of the oldest live batch). Every query's
rows must equal, as a list, the depth-first enumerator of
:mod:`tests.core.defactorize_reference` on the same answer graph and
embedding order, and its count :class:`NavigationalEngine`'s. After
each paper query, every relation whose two indexes were both built
(the second one by inverting the first) must hold exact mutual
inverses. Each paper snowflake, evaluated through
:meth:`WireframeEngine.evaluate`, hands back thousands of rows; no
young collection may run between its return and the release of those
rows (:mod:`repro.core.gc_pause` promotes them). The file name keeps it
out of tier-1 collection (about half a minute per run); CI runs it
once per backend:

    REPRO_BACKEND=columnar python -m pytest tests/core/fixture_phase2.py -q
"""

import gc

import pytest

from repro.baselines.navigational import NavigationalEngine
from repro.core.engine import WireframeEngine
from repro.core.generation import generate_answer_graph
from repro.datasets.paper_queries import paper_queries
from repro.datasets.yago_like import generate_yago_like
from repro.query.model import ConjunctiveQuery

from tests.core.defactorize_reference import reference_rows
from tests.core.test_gc_pause import collections_started
from tests.properties.strategies import adjacency_pairs

CYCLES = 64
BATCH = 16
LINK = "fixture:link"
PROBES = [
    ConjunctiveQuery([("?a", LINK, "?b")], name="probe1"),
    ConjunctiveQuery([("?a", LINK, "?b"), ("?b", LINK, "?c")], name="probe2"),
]


def assert_reference_rows(store, query):
    engine = WireframeEngine(store)
    result = engine.evaluate_detailed(query)
    # The answer graph again, with its chords, as phase 2 read it.
    bound, plan, chordification = engine.plan(query)
    ag, _ = generate_answer_graph(bound, plan, chordification=chordification, keep_chords=True)
    assert ag.size == result.ag_size
    assert result.rows == reference_rows(ag, result.embedding_plan.order)
    assert result.count == NavigationalEngine(store).evaluate(query, materialize=False).count
    return result.answer_graph


def assert_built_indexes_are_mutual_inverses(ag) -> int:
    """How many relations had both indexes built; each pair exact."""
    both = 0
    for rel in ag.materialized_order:
        forward, backward = ag.built(rel, "s"), ag.built(rel, "o")
        if forward is None or backward is None:
            continue
        both += 1
        assert all(forward.values()) and all(backward.values())
        pairs = adjacency_pairs(forward)
        assert len(pairs) == ag.relation_size(rel)
        assert adjacency_pairs(backward) == {(o, s) for s, o in pairs}
    return both


@pytest.fixture(scope="module")
def store():
    return generate_yago_like(scale=2.0, seed=0, freeze=False)


@pytest.mark.parametrize("index", range(10))
def test_paper_query_rows_in_reference_order(store, index):
    query = paper_queries()[index]
    both = assert_built_indexes_are_mutual_inverses(assert_reference_rows(store, query))
    # A diamond's chord joins read each side from both ends.
    assert both > 0 or not query.name.startswith("CQ_D")


@pytest.mark.parametrize("index", range(5))
def test_snowflake_rows_skip_the_young_collection(store, index):
    query = paper_queries()[index]
    assert query.name.startswith("CQ_S")
    engine = WireframeEngine(store)
    with collections_started() as started:
        result = engine.evaluate(query)
        assert len(result.rows) >= gc.get_threshold()[0] > 0
        del result
    assert started == [], query.name


def test_probe_rows_in_reference_order_after_writes(store):
    live: list[list[tuple[str, str, str]]] = []
    added = 0
    for cycle in range(CYCLES):
        if cycle % 4 == 3:
            batch = live.pop(0)
            lookup = store.dictionary.lookup
            assert store.remove_triples([tuple(map(lookup, t)) for t in batch]) == BATCH
        else:
            batch = [(f"fixture:{added}:{i}", LINK, f"fixture:{added}:{i + 1}")
                     for i in range(BATCH)]
            added += 1
            assert store.add_term_triples(batch) == BATCH
            live.append(batch)
    assert len(live) == CYCLES - 2 * (CYCLES // 4)
    for probe in PROBES:
        assert_reference_rows(store, probe)
