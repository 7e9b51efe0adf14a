"""Backend parity: every physical layout is observationally identical.

The storage-backend protocol promises that swapping the physical
triple layout (nested dict-of-sets vs dictionary-encoded sorted
columns) changes *nothing* an engine, planner, or catalog can observe.
These properties build the same random graph on every registered
backend and assert identical:

* pattern scans over all eight bound/unbound position combinations,
* kernel-view contents (adjacency / reverse adjacency / subject and
  object sets) and the ``gather`` extension primitive,
* statistics catalogs (``Catalog.__eq__`` over unigrams + bigrams),
* end-to-end ``EngineResult`` counts and rows for the Wireframe engine
  and a materializing baseline, including self-joins and constants,
* the paper's Table-1 queries on the YAGO-like generator.
"""

from __future__ import annotations

import itertools
import tempfile
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import HashJoinEngine
from repro.core.engine import WireframeEngine
from repro.graph.backends import available_backends
from repro.graph.backends.columnar import SortedRun
from repro.graph.store import TripleStore
from repro.graph.triples import TriplePattern
from repro.query.model import ConjunctiveQuery
from repro.stats.catalog import build_catalog
from repro.storage.snapshot import load_snapshot, save_snapshot

from tests.properties.strategies import (
    LABELS,
    acyclic_queries,
    build_store,
    cyclic_queries,
    degree_table,
    edge_lists,
)

SETTINGS = settings(max_examples=40, deadline=None)

BACKENDS = available_backends()


def build_on_all_backends(graph: dict):
    """The same random graph, one store per registered backend."""
    return [build_store(graph, backend=name) for name in BACKENDS]


def as_pairs(view) -> dict[int, set[int]]:
    """Canonical dict-of-sets form of any adjacency-like view."""
    return {k: set(vs) for k, vs in view.items()}


@SETTINGS
@given(graph=edge_lists())
def test_pattern_scans_identical(graph):
    stores = build_on_all_backends(graph)
    reference = stores[0]
    ids = [None] + sorted(
        itertools.islice(reference.nodes(), 4)
    ) + [reference.dictionary.lookup(LABELS[0]), 999_999]
    for store in stores[1:]:
        assert store.num_triples == reference.num_triples
        assert set(store.nodes()) == set(reference.nodes())
        assert store.predicates() == reference.predicates()
        for s, p, o in itertools.product(ids, repeat=3):
            pattern = TriplePattern(s, p, o)
            assert set(store.match(pattern)) == set(reference.match(pattern)), (
                pattern
            )
            assert store.count_matches(pattern) == reference.count_matches(
                pattern
            )


@SETTINGS
@given(graph=edge_lists())
def test_kernel_views_identical(graph):
    stores = build_on_all_backends(graph)
    reference = stores[0]
    for store in stores[1:]:
        for label in LABELS:
            p = reference.dictionary.lookup(label)
            if p is None:
                continue
            assert as_pairs(store.adjacency(p)) == as_pairs(
                reference.adjacency(p)
            )
            assert as_pairs(store.reverse_adjacency(p)) == as_pairs(
                reference.reverse_adjacency(p)
            )
            assert set(store.subject_set(p)) == set(reference.subject_set(p))
            assert set(store.object_set(p)) == set(reference.object_set(p))


def _set_like(kind: str, ids):
    """``ids`` as one of the set-likes an extension step is handed."""
    if kind == "set":
        return set(ids)
    if kind == "frozenset":
        return frozenset(ids)
    if kind == "dict_keys":
        return dict.fromkeys(ids).keys()
    # A run inside a longer column, as adjacency values are.
    column = array("q", [-7, *sorted(set(ids)), 1 << 40])
    return SortedRun(column, 1, len(column) - 1)


SET_LIKES = st.sampled_from(("set", "frozenset", "dict_keys", "SortedRun"))


def gather_layouts(graph: dict, tmp: str) -> dict:
    """The same graph under every layout ``gather`` has to serve."""
    stores = {name: build_store(graph, backend=name) for name in BACKENDS}
    save_snapshot(stores["columnar"], tmp, include_catalog=False)
    stores["columnar-mmap"] = load_snapshot(tmp, backend="columnar")
    staged = TripleStore(backend="columnar")
    for label, pairs in graph.items():
        for i, (s, o) in enumerate(pairs):
            staged.add_term_triple(f"n{s}", label, f"n{o}")
            if i == len(pairs) // 2:
                staged.adjacency(staged.dictionary.lookup(label))  # seals
    stores["columnar-staged"] = staged
    return stores


@settings(max_examples=60, deadline=None)
@given(
    graph=edge_lists(max_nodes=14, max_edges_per_label=40),
    label=st.sampled_from(LABELS + ("Z",)),
    nodes_kind=st.one_of(st.none(), SET_LIKES),
    nodes_size=st.sampled_from((0, 1, 4, 5, 40)),
    filters=st.lists(
        st.tuples(SET_LIKES, st.sampled_from((0, 1, 2, 6, 40))), max_size=3
    ),
    reverse=st.booleans(),
    self_join=st.booleans(),
    data=st.data(),
)
def test_gather_identical_on_every_layout(
    graph, label, nodes_kind, nodes_size, filters, reverse, self_join, data
):
    """``gather`` == the definition, computed pair by pair, on both
    backends, on mapped columns and over staged writes: the adjacency
    and the walks, for every kind of candidate set and filter, few and
    many candidates, nodes the predicate does not have, either
    direction, the diagonal, and a predicate nobody has."""
    with tempfile.TemporaryDirectory() as tmp:
        stores = gather_layouts(graph, tmp + "/snapshot")
        lookup = stores["hashdict"].dictionary.lookup
        ids = sorted(stores["hashdict"].nodes()) + [987_654, 987_655]

        def subset(size):
            return data.draw(
                st.lists(st.sampled_from(ids), max_size=size, unique=True)
            )

        p = lookup(label)
        if p is None:
            p = 999_999
        pairs = [(lookup(f"n{s}"), lookup(f"n{o}")) for s, o in graph.get(label, ())]
        if reverse:
            pairs = [(o, s) for s, o in pairs]
        wanted = None if nodes_kind is None else subset(nodes_size)
        filter_ids = [subset(size) for _, size in filters]

        expected: dict[int, set[int]] = {}
        walks = 0
        for near, far in pairs:
            if wanted is not None and near not in wanted:
                continue
            walks += 1
            if all(far in view for view in filter_ids) and (
                not self_join or near == far
            ):
                expected.setdefault(near, set()).add(far)

        for name, store in stores.items():
            for target in (store, store.backend):
                nodes = None if wanted is None else _set_like(nodes_kind, wanted)
                views = [
                    _set_like(kind, view)
                    for (kind, _), view in zip(filters, filter_ids)
                ]
                adj, counted = target.gather(
                    p, nodes, views, reverse=reverse, self_join=self_join
                )
                assert (adj, counted) == (expected, walks), name
                assert all(type(bucket) is set for bucket in adj.values())
        assert stores["hashdict"].gather(999_999, None) == ({}, 0)


@SETTINGS
@given(graph=edge_lists())
def test_catalogs_identical(graph):
    stores = build_on_all_backends(graph)
    catalogs = [build_catalog(store) for store in stores]
    for catalog in catalogs[1:]:
        assert catalog == catalogs[0]
        assert hash(catalog) == hash(catalogs[0])
    tables = [degree_table(store) for store in stores]
    for table in tables[1:]:
        assert table == tables[0]


@SETTINGS
@given(graph=edge_lists(), query=acyclic_queries())
def test_engine_results_identical_acyclic(graph, query):
    _assert_engine_parity(graph, query)


@SETTINGS
@given(graph=edge_lists(), query=cyclic_queries())
def test_engine_results_identical_cyclic(graph, query):
    _assert_engine_parity(graph, query)


@SETTINGS
@given(graph=edge_lists())
def test_engine_results_identical_self_join_and_constant(graph):
    # A self-loop edge and a constant endpoint exercise the candidate
    # configurations the bulk kernels special-case.
    self_join = ConjunctiveQuery([("?a", "A", "?a"), ("?a", "B", "?b")])
    constant = ConjunctiveQuery([("?a", "A", "n0"), ("?a", "B", "?b")])
    _assert_engine_parity(graph, self_join)
    _assert_engine_parity(graph, constant)


def _assert_engine_parity(graph: dict, query: ConjunctiveQuery) -> None:
    stores = build_on_all_backends(graph)
    outcomes = []
    for store in stores:
        wf = WireframeEngine(store).evaluate(query)
        pg = HashJoinEngine(store).evaluate(query)
        outcomes.append(
            (
                wf.count,
                sorted(wf.rows),
                wf.stats["ag_size"],
                wf.stats["edge_walks"],
                pg.count,
                sorted(pg.rows),
            )
        )
        assert wf.stats["backend"] == store.backend_name
    for outcome, name in zip(outcomes[1:], BACKENDS[1:]):
        assert outcome == outcomes[0], name


def test_paper_queries_identical_across_backends():
    """End-to-end Table-1 parity on the YAGO-like generator."""
    from repro.datasets.paper_queries import (
        paper_diamond_queries,
        paper_snowflake_queries,
    )
    from repro.datasets.yago_like import generate_yago_like

    stores = [
        generate_yago_like(scale=0.06, seed=11, backend=name)
        for name in BACKENDS
    ]
    queries = paper_snowflake_queries() + paper_diamond_queries()
    for query in queries:
        results = [
            WireframeEngine(store).evaluate(query) for store in stores
        ]
        for result, name in zip(results[1:], BACKENDS[1:]):
            assert result.count == results[0].count, (query.name, name)
            assert sorted(result.rows) == sorted(results[0].rows), (
                query.name,
                name,
            )
            assert result.stats["ag_size"] == results[0].stats["ag_size"]
            assert result.stats["edge_walks"] == results[0].stats["edge_walks"]
