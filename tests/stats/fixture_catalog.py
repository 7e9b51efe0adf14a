"""The catalog at the benchmark fixture's scale, on the default backend.

``generate_yago_like(scale=2.0, seed=0)`` gives about 600k label pairs,
so the bigram kernel runs many full chunks; the small stores of the
tier-1 suite reach that code only with a shrunken ``CHUNK_PAIRS``. The
file name keeps it out of tier-1 collection (a few seconds per run).
CI runs it once per backend:

    REPRO_BACKEND=columnar python -m pytest tests/stats/fixture_catalog.py -q
"""

import random

import pytest

from repro.datasets.yago_like import generate_yago_like
from repro.stats.catalog import build_catalog

from tests.stats.catalog_reference import reference_catalog

BATCH = 16


@pytest.fixture(scope="module")
def store():
    return generate_yago_like(scale=2.0, seed=0, freeze=False)


def test_build_equals_reference(store):
    built = build_catalog(store)
    assert built == reference_catalog(store)
    assert list(built.bigrams) == sorted(built.bigrams)


def test_patched_writes_equal_a_rebuild(store):
    rng = random.Random(0)
    nodes = sorted(store.nodes())
    preds = store.predicates()
    adds = set()
    while len(adds) < BATCH:
        triple = (rng.choice(nodes), rng.choice(preds), rng.choice(nodes))
        if triple not in store:
            adds.add(triple)
    removes = rng.sample(sorted(store.triples()), BATCH)

    store.catalog()
    refreshes = dict(store.catalog_refreshes)
    assert store.add_triples(sorted(adds)) == BATCH
    assert store.catalog() == build_catalog(store)
    assert store.remove_triples(removes) == BATCH
    patched = store.catalog()
    assert patched == build_catalog(store)
    assert list(patched.bigrams) == sorted(patched.bigrams)
    assert store.catalog_refreshes == {
        "full": refreshes["full"],
        "delta": refreshes["delta"] + 2,
    }
