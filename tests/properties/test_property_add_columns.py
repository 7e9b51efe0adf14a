"""Column writes against triple writes, on every backend.

Two stores on one backend take the same random interleaving of adds,
removals, reads (which seal, on columnar) and catalog refreshes. One
writes each add batch by ``add_triples``; the other writes the same
batch as one :meth:`TripleStore.add_columns` call per predicate group
and journals it through an attached write-ahead log. After every step
the two must agree on the epoch, every per-predicate epoch, the
``applied`` change feed the catalog memo is patched from (as a
multiset), the refresh kinds, and on columnar on exactly which pairs
are staged and which sealed: a group lands by the same rule either way.
At the end the segments and ``nodes()`` must be equal, the patched
catalogs equal a rebuild, and replaying the log into an empty store
must reproduce the column-written one.

Batches repeat triples within themselves and re-add pairs already
sealed or staged; the node pool is wide enough that a group may or may
not double what its predicate holds, so both the merge and the staged
path run.
"""

from __future__ import annotations

import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.graph.backends import available_backends
from repro.graph.store import TripleStore
from repro.stats.catalog import build_catalog
from repro.storage import WalWriteHook, WriteAheadLog
from repro.storage.recovery import replay_wal, store_fingerprint

SETTINGS = settings(max_examples=40, deadline=None)

PREDICATES = (0, 7, 2**33)
POOL = (0, 1, 2, 5, 2**32 - 1, 2**32, 2**62) + tuple(2**40 + i for i in range(25))
pool_triples = st.tuples(
    st.sampled_from(POOL), st.sampled_from(PREDICATES), st.sampled_from(POOL)
)


def as_columns(batch):
    """The batch's predicate groups, in first-seen order, as
    ``(p, subjects, objects)`` with ``int64`` columns."""
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for s, p, o in batch:
        subs, objs = groups.setdefault(p, ([], []))
        subs.append(s)
        objs.append(o)
    return [
        (p, np.array(subs, np.int64), np.array(objs, np.int64))
        for p, (subs, objs) in groups.items()
    ]


def layout(store: TripleStore):
    """Columnar's staged pairs and sealed columns, as plain values."""
    backend = store.backend
    return (
        {p: {s: set(objs) for s, objs in by_s.items()}
         for p, by_s in backend._staged.items()},
        {p: tuple(map(list, cols.to_segment())) for p, cols in backend._cols.items()},
    )


def check_same(rows: TripleStore, cols: TripleStore) -> None:
    assert rows.epoch == cols.epoch
    for p in PREDICATES:
        assert rows.predicate_epoch(p) == cols.predicate_epoch(p)
    assert rows.num_triples == cols.num_triples
    assert (rows._catalog_memo is None) == (cols._catalog_memo is None)
    assert Counter(rows._pending) == Counter(cols._pending)
    if rows.backend_name == "columnar":
        assert layout(rows) == layout(cols)


@pytest.mark.parametrize("backend", available_backends())
@SETTINGS
@given(data=st.data())
def test_add_columns_matches_add_triples(backend, data):
    rows, cols = TripleStore(backend=backend), TripleStore(backend=backend)
    model: set[tuple[int, int, int]] = set()
    if data.draw(st.booleans(), label="memo"):
        rows.catalog()
        cols.catalog()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.wal")
        wal = WriteAheadLog.open(path, fsync="none")
        cols.attach_write_log(WalWriteHook(wal, cols.dictionary))
        for _ in range(data.draw(st.integers(1, 6), label="steps")):
            op = data.draw(
                st.sampled_from(("add", "add", "remove", "read", "catalog")),
                label="op",
            )
            if op == "add":
                size = data.draw(st.integers(0, 120), label="size")
                batch = data.draw(
                    st.lists(pool_triples, min_size=size, max_size=size), label="add"
                )
                batch += batch[: len(batch) // 8]  # repeats within one batch
                if model:  # pairs already sealed or staged
                    batch += data.draw(
                        st.lists(st.sampled_from(sorted(model)), max_size=10),
                        label="again",
                    )
                new = len(set(batch) - model)
                assert rows.add_triples(batch) == new
                assert sum(cols.add_columns(*group) for group in as_columns(batch)) == new
                model |= set(batch)
            elif op == "remove":
                batch = []
                if model:
                    batch = data.draw(
                        st.lists(st.sampled_from(sorted(model)), max_size=30),
                        label="remove",
                    )
                assert rows.remove_triples(batch) == cols.remove_triples(batch)
                model -= set(batch)
            elif op == "read":
                for p in PREDICATES:
                    assert rows.count(p) == cols.count(p)
            else:  # a rebuild reads (and so seals) every predicate
                assert rows.catalog() == cols.catalog()
                assert build_catalog(rows) == build_catalog(cols) == cols.catalog()
                assert rows.catalog_refreshes == cols.catalog_refreshes
            check_same(rows, cols)
        cols.detach_write_log()
        wal.close()

        assert rows.catalog() == cols.catalog() == build_catalog(cols)
        assert rows.catalog_refreshes == cols.catalog_refreshes
        segments = [(p, tuple(seg)) for p, seg in cols.backend.export_segments()]
        assert [(p, tuple(seg)) for p, seg in rows.backend.export_segments()] == segments
        assert rows.nodes() == cols.nodes()
        assert cols.nodes() == {s for s, _, _ in model} | {o for _, _, o in model}
        assert all(type(n) is int for n in cols.nodes())

        replayed = TripleStore(backend=backend)
        replay_wal(replayed, path)
        assert store_fingerprint(replayed) == store_fingerprint(cols)
        assert replayed.epoch == cols.epoch
        for p in PREDICATES:
            assert replayed.predicate_epoch(p) == cols.predicate_epoch(p)
        assert [(p, tuple(seg)) for p, seg in replayed.backend.export_segments()] == segments


def test_a_group_smaller_than_its_predicate_is_staged():
    store = TripleStore(backend="columnar")
    objs = np.arange(10, 20)
    assert store.add_columns(3, np.full(10, 1), objs) == 10  # a new predicate
    assert 3 not in store.backend._staged
    assert store.add_columns(3, [2, 2, 2], [10, 11, 10]) == 2  # 3 < 10: staged
    assert store.backend._staged[3] == {2: {10, 11}}
    # 12 held, 12 in the group, one sealed and one staged pair among
    # them: merged with both and sealed, counting the 10 new pairs.
    subs = np.array([4] * 10 + [1, 2])
    assert store.add_columns(3, subs, np.arange(12)) == 10
    assert 3 not in store.backend._staged
    assert store.add_columns(3, [1, 2], [10, 11]) == 0
    assert store.count(3) == 22 and store.epoch == store.predicate_epoch(3) == 22
    assert all(type(n) is int for n in store.nodes())


@pytest.mark.parametrize("backend", available_backends())
def test_add_columns_refuses_what_is_not_two_integer_columns(backend):
    store = TripleStore(backend=backend)
    assert store.add_columns(3, [], []) == 0
    assert store.predicates() == [] and store.epoch == 0
    with pytest.raises(ValueError, match="one length"):
        store.add_columns(3, [1, 2], [3])
    with pytest.raises(ValueError, match="one length"):
        store.add_columns(3, [[1, 2]], [[3, 4]])
    with pytest.raises(TypeError, match="integers"):
        store.add_columns(3, [1.5], [2.0])
    with pytest.raises(TypeError):
        store.add_columns(3.0, [1], [2])
    assert store.epoch == 0
    store.freeze()
    with pytest.raises(StoreError, match="frozen"):
        store.add_columns(3, [1], [2])
