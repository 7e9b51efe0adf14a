"""Columnar seals at the benchmark fixture's scale, write after write.

64 cycles in the shape of the ``write_read_mix`` benchmark over
``generate_yago_like(scale=2.0, seed=0, backend="columnar")``: each
cycle writes one 16-triple batch (an add, or on every 4th cycle the
removal of the oldest batch still live), then reads. Even batches are
16-edge paths over a new predicate, which grows with the live batches
as the benchmark's probed predicate does; odd batches land on the
fixture's own predicates, so seals and removals also run over columns
of thousands of pairs. After each read every predicate the batch
touched must hold columns equal to :meth:`Segment.from_pairs` of its
pairs as a plain set tracks them, and the catalog the write patched
must equal a rebuild. A second case loads all the fixture's triples
in one ``add_triples`` call, the bulk path every predicate group of
which is merged and sealed at once (what ``graph.columnar.build_s``
times): its columns must equal the generator's, segment for segment,
and both must equal :meth:`Segment.from_pairs` of the same generation
on hashdict. A third pins the generator's bytes at this scale: the
snapshot files of the fixture, on both backends, against a recorded
digest, so a change to how the generator writes cannot change what it
writes (the smaller scales are pinned in
``tests/datasets/test_yago_like.py``). The file name keeps it out of
tier-1 collection (a few seconds per run); CI runs it on the columnar
leg:

    python -m pytest tests/graph/fixture_seal.py -q
"""

import random

import pytest

from repro.datasets.yago_like import generate_yago_like
from repro.graph.backends import Segment
from repro.graph.store import TripleStore
from repro.stats.catalog import build_catalog
from tests.datasets.test_yago_like import files_digest

CYCLES = 64
BATCH = 16
LINK = "fixture:link"
#: ``files_digest`` of ``generate_yago_like(scale=2.0, seed=0)``.
FIXTURE_FILES_SHA256 = "726f0265fcbc6621980e463a4a860f17c561a957b466b7d7fd610a8fdd9484b4"


def test_write_read_cycles_seal_exactly():
    store = generate_yago_like(scale=2.0, seed=0, freeze=False, backend="columnar")
    backend = store.backend
    rng = random.Random(0)
    nodes = sorted(store.nodes())
    preds = store.predicates()
    link = store.dictionary.encode(LINK)
    pairs: dict[int, set[tuple[int, int]]] = {}

    def pairs_of(p):
        if p not in pairs:
            pairs[p] = set(backend.edges(p))
        return pairs[p]

    def batch_of(n):
        if n % 2 == 0:
            path = store.dictionary.encode_many(
                f"fixture:{n}:{i}" for i in range(BATCH + 1)
            )
            return [(a, link, b) for a, b in zip(path, path[1:])]
        batch = set()
        while len(batch) < BATCH:
            triple = (rng.choice(nodes), rng.choice(preds), rng.choice(nodes))
            if triple not in store:
                batch.add(triple)
        return sorted(batch)

    store.catalog()
    refreshes = dict(store.catalog_refreshes)
    live: list[list[tuple[int, int, int]]] = []
    added = 0
    for cycle in range(CYCLES):
        if cycle % 4 == 3:
            batch = live.pop(0)
            assert store.remove_triples(batch) == BATCH
            for s, p, o in batch:
                pairs_of(p).remove((s, o))
        else:
            batch = batch_of(added)
            added += 1
            for s, p, o in batch:  # the model reads the pairs before the add
                pairs_of(p).add((s, o))
            assert store.add_triples(batch) == BATCH
            live.append(batch)
        assert store.catalog() == build_catalog(store)
        for p in sorted({p for _, p, _ in batch}):
            expected = sorted(pairs_of(p))
            assert backend.count(p) == len(expected)  # the read: seals p
            cols = backend._cols.get(p)
            if not expected:
                assert cols is None
                continue
            assert tuple(cols.to_segment()) == tuple(Segment.from_pairs(expected))
        assert backend.count(link) == BATCH * sum(
            1 for batch in live if batch[0][1] == link
        )
    assert store.catalog_refreshes == {
        "full": refreshes["full"],
        "delta": refreshes["delta"] + CYCLES,
    }


def test_one_batch_load_gives_the_generators_columns():
    generated = generate_yago_like(scale=2.0, seed=0, backend="columnar")
    store = TripleStore(dictionary=generated.dictionary, backend="columnar")
    assert store.add_triples(list(generated.triples())) == generated.num_triples
    assert not store.backend._staged  # every group merged, none staged
    store.freeze()
    reference = generate_yago_like(scale=2.0, seed=0, backend="hashdict")
    loaded = list(store.backend.export_segments())
    assert [p for p, _ in loaded] == reference.predicates()
    for (p, seg), (q, expected) in zip(loaded, generated.backend.export_segments()):
        assert p == q
        assert tuple(seg) == tuple(expected)
        assert tuple(seg) == tuple(Segment.from_pairs(sorted(reference.edges(p))))
    assert store.backend.nodes() == reference.nodes()


@pytest.mark.parametrize("backend", ["columnar", "hashdict"])
def test_the_fixtures_snapshot_bytes_are_pinned(tmp_path, backend):
    store = generate_yago_like(scale=2.0, seed=0, backend=backend)
    assert files_digest(store, tmp_path / "snap") == FIXTURE_FILES_SHA256
