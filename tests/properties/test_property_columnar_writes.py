"""Columnar writes: seals, removals and degree probes against a plain set.

A random interleaving of batched adds, batched removes and reads runs
on a :class:`ColumnarBackend`, beside a :class:`HashDictBackend` fed the
same batches and a plain ``set`` of triples as the model. Reads seal
the predicates they touch; after each one every touched predicate's six
columns must equal :meth:`Segment.from_pairs` of its sorted pairs and a
one-pair-at-a-time reference grouping of them, in both directions.
``label_degrees`` must equal hashdict's after every step, on nodes that
are only staged, nodes that are sealed, and nodes that are absent.

Ids go past 2**32 (and up to 2**62) so that no step may pack two ids
into one 64-bit key, and batches repeat triples so that a duplicate
within one batch counts once.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.backends import ColumnarBackend, HashDictBackend, Segment

SETTINGS = settings(max_examples=60, deadline=None)

NODES = (0, 1, 2, 5, 2**32 - 1, 2**32, 2**32 + 3, 2**62)
PREDICATES = (0, 7, 2**33)
ABSENT = 2**40

triples = st.tuples(
    st.sampled_from(NODES), st.sampled_from(PREDICATES), st.sampled_from(NODES)
)


def pairs_of(model: set, p: int) -> list[tuple[int, int]]:
    return sorted((s, o) for s, q, o in model if q == p)


def reference_group(pairs: list[tuple[int, int]]) -> tuple[list, list, list]:
    """``(keys, offs, vals)`` of sorted pairs, one pair at a time."""
    keys, offs, vals = [], [0], []
    for k, v in pairs:
        if not keys or keys[-1] != k:
            if keys:
                offs.append(len(vals))
            keys.append(k)
        vals.append(v)
    if keys:
        offs.append(len(vals))
    return keys, offs, vals


def check_sealed(backend: ColumnarBackend, model: set, p: int) -> None:
    pairs = pairs_of(model, p)
    assert backend.count(p) == len(pairs)  # a read: seals p
    assert p not in backend._staged
    cols = backend._cols.get(p)
    if not pairs:
        assert cols is None
        assert p not in backend.predicates()
        return
    seg = cols.to_segment()
    assert [column.typecode for column in seg] == ["q"] * 6
    assert tuple(seg) == tuple(Segment.from_pairs(pairs))
    columns = [column.tolist() for column in seg]
    assert tuple(columns[:3]) == reference_group(pairs)
    assert tuple(columns[3:]) == reference_group(sorted((o, s) for s, o in pairs))


def check_degrees(columnar, hashdict, model: set, nodes) -> None:
    probe = set(nodes) | {ABSENT}
    assert columnar.label_degrees(probe) == hashdict.label_degrees(probe)
    assert columnar.num_triples == hashdict.num_triples == len(model)


@SETTINGS
@given(data=st.data())
def test_interleaved_writes_match_a_set(data):
    columnar, hashdict = ColumnarBackend(), HashDictBackend()
    model: set[tuple[int, int, int]] = set()
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        op = data.draw(st.sampled_from(("add", "remove", "read")), label="op")
        if op == "add":
            batch = data.draw(st.lists(triples, max_size=10), label="add")
            new = set(batch) - model
            assert columnar.add_many(batch) == len(new)
            hashdict.add_many(batch)
            model |= new
            # Staged-only nodes are probed before any read seals them.
            touched = {s for s, _, _ in batch} | {o for _, _, o in batch}
        elif op == "remove":
            present = sorted(model)
            hits = []
            if present:
                hits = data.draw(
                    st.lists(st.sampled_from(present), max_size=8), label="hits"
                )
            misses = data.draw(st.lists(triples, max_size=3), label="misses")
            batch = hits + hits[:2] + misses  # repeats within one batch
            gone = set(batch) & model
            assert columnar.remove_many(batch) == len(gone)
            hashdict.remove_many(batch)
            model -= gone
            touched = {s for s, _, _ in batch} | {o for _, _, o in batch}
        else:
            read = data.draw(
                st.lists(st.sampled_from(PREDICATES), min_size=1, unique=True),
                label="read",
            )
            for p in read:
                check_sealed(columnar, model, p)
            touched = set(NODES)
        check_degrees(columnar, hashdict, model, touched)
    for p in PREDICATES:
        check_sealed(columnar, model, p)
    assert columnar.nodes() == {s for s, _, _ in model} | {o for _, _, o in model}
    check_degrees(columnar, hashdict, model, NODES)


def test_removal_empties_a_sealed_and_staged_predicate():
    backend = ColumnarBackend()
    big = 2**32 + 5
    backend.add_many([(1, 3, big), (big, 3, 1)])
    backend.freeze()
    backend.add_many([(2, 3, big)])  # staged beside the sealed pairs
    batch = [(1, 3, big), (2, 3, big), (big, 3, 1), (1, 3, big)]
    assert backend.remove_many(batch) == 3
    assert backend.count(3) == 0
    assert 3 not in backend._cols and 3 not in backend._staged
    assert backend.label_degrees([1, big]) == {1: ({}, {}), big: ({}, {})}
    assert backend.nodes() == set()


def test_empty_segment_imports_no_predicate():
    backend = ColumnarBackend()
    assert backend.import_segments([(3, Segment.from_pairs([]))]) == 0
    assert 3 not in backend.predicates()
    assert backend.label_degrees([1]) == {1: ({}, {})}
