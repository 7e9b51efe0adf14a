"""Tests for the YAGO-like generator."""

import hashlib
import json

import pytest

from repro.datasets import schema
from repro.datasets.yago_like import MAX_SCALE, YagoLikeConfig, generate_yago_like
from repro.errors import DatasetError
from repro.storage import save_snapshot

#: sha256 of the snapshot manifest's ``files`` table (each file's sha256
#: and size, as sorted JSON) for ``generate_yago_like(scale, seed=0)``:
#: the term file and its index, the 104 segments and the catalog, byte
#: for byte, equal on both backends. At 0.01 and 0.05 the per-channel
#: fallback edge is taken 4 and 2 times. Scale 2.0 is pinned in
#: ``tests/graph/fixture_seal.py``.
GENERATED_FILES_SHA256 = {
    0.01: "b711aa4f125321ea55ed24137117fcb8d5f7c0ab4432d54d49d69fe3e6a35938",
    0.05: "2897c16bb9db9f544787fbec2900e621863611e9c89c622c6fe2967af1d5bea4",
    0.25: "e4d0263261be9967e4382d68114b729f85d277f6dd7c87ced6121f308d33775f",
}


def files_digest(store, path) -> str:
    """The digest :data:`GENERATED_FILES_SHA256` pins, of ``store``
    saved as a snapshot under ``path``."""
    files = save_snapshot(store, path)["files"]
    return hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("backend", ["columnar", "hashdict"])
@pytest.mark.parametrize("scale", sorted(GENERATED_FILES_SHA256))
def test_generated_snapshot_bytes_are_pinned(tmp_path, scale, backend):
    store = generate_yago_like(scale=scale, seed=0, backend=backend)
    assert files_digest(store, tmp_path / "snap") == GENERATED_FILES_SHA256[scale]


def test_default_predicate_vocabulary_is_104(mini_yago):
    assert len(mini_yago.predicates()) == schema.TARGET_PREDICATE_COUNT


def test_core_predicates_present(mini_yago):
    decode = mini_yago.dictionary.decode
    labels = {decode(p) for p in mini_yago.predicates()}
    for name in schema.CORE_PREDICATE_NAMES:
        assert name in labels
    assert schema.RDF_TYPE in labels


def test_determinism():
    a = generate_yago_like(scale=0.05, seed=42)
    b = generate_yago_like(scale=0.05, seed=42)
    assert a.num_triples == b.num_triples
    ta = {tuple(a.dictionary.decode(x) for x in t) for t in a.triples()}
    tb = {tuple(b.dictionary.decode(x) for x in t) for t in b.triples()}
    assert ta == tb


def test_seed_changes_graph():
    a = generate_yago_like(scale=0.05, seed=1)
    b = generate_yago_like(scale=0.05, seed=2)
    ta = {tuple(a.dictionary.decode(x) for x in t) for t in a.triples()}
    tb = {tuple(b.dictionary.decode(x) for x in t) for t in b.triples()}
    assert ta != tb


def test_scale_grows_graph():
    small = generate_yago_like(scale=0.05, seed=0)
    large = generate_yago_like(scale=0.2, seed=0)
    assert large.num_triples > 2 * small.num_triples


def test_frozen_by_default(mini_yago):
    assert mini_yago.frozen


def test_unfrozen_option():
    store = generate_yago_like(scale=0.05, seed=0, freeze=False)
    assert not store.frozen


def test_type_triples_emitted(mini_yago):
    p = mini_yago.dictionary.lookup(schema.RDF_TYPE)
    assert p is not None
    assert mini_yago.count(p) > 0
    person_class = mini_yago.dictionary.lookup("class:Person")
    assert person_class is not None
    assert len(mini_yago.predecessors(p, person_class)) > 0


def test_no_organic_self_loops(mini_yago):
    links = mini_yago.dictionary.lookup("linksTo")
    for s, o in mini_yago.edges(links):
        assert s != o


def test_signature_types_respected(mini_yago):
    # Every actedIn edge runs Person -> Movie.
    decode = mini_yago.dictionary.decode
    acted = mini_yago.dictionary.lookup("actedIn")
    for s, o in mini_yago.edges(acted):
        s_term, o_term = decode(s), decode(o)
        if s_term.startswith("witness:"):
            continue
        assert s_term.startswith("Person:")
        assert o_term.startswith("Movie:")


def test_witnesses_make_paper_queries_nonempty(mini_yago):
    from repro.core.ideal import has_any_embedding
    from repro.datasets.paper_queries import paper_queries

    for q in paper_queries():
        assert has_any_embedding(mini_yago, q), q.name


def test_without_witnesses_option():
    config = YagoLikeConfig(scale=0.05, seed=0, plant_witnesses=False)
    store = generate_yago_like(config)
    decode = store.dictionary.decode
    assert not any(decode(n).startswith("witness:") for n in store.nodes())


def test_filler_predicates_configurable():
    config = YagoLikeConfig(scale=0.05, seed=0, filler_predicates=3)
    store = generate_yago_like(config)
    n_core = len(schema.CORE_PREDICATE_NAMES)
    assert len(store.predicates()) == n_core + 1 + 3  # + rdf:type


def test_config_overrides_via_kwargs():
    store = generate_yago_like(YagoLikeConfig(scale=0.3), scale=0.05, seed=9)
    smaller = generate_yago_like(scale=0.05, seed=9)
    assert store.num_triples == smaller.num_triples


def test_invalid_config_rejected():
    with pytest.raises(DatasetError):
        YagoLikeConfig(scale=0)
    for scale in ("nan", "inf"):
        with pytest.raises(DatasetError, match="positive and finite"):
            YagoLikeConfig(scale=float(scale))
    for scale in (MAX_SCALE + 1, 1e15, 99999999999999999999):
        with pytest.raises(DatasetError, match=f"at most MAX_SCALE = {MAX_SCALE}"):
            YagoLikeConfig(scale=scale)
    with pytest.raises(DatasetError):
        YagoLikeConfig(filler_predicates=-1)
    with pytest.raises(DatasetError, match="seed must be >= 0"):
        YagoLikeConfig(seed=-1)
    with pytest.raises(DatasetError, match="seed must be >= 0"):
        generate_yago_like(scale=0.05, seed=-1)


def test_zipf_popularity_skew(mini_yago):
    # The rank-0 movie must attract far more actedIn fan-in than the
    # median movie (hub structure drives factorization wins).
    acted = mini_yago.dictionary.lookup("actedIn")
    movie0 = mini_yago.dictionary.lookup("Movie:0")
    degrees = sorted(
        map(len, mini_yago.reverse_adjacency(acted).values()), reverse=True
    )
    assert len(mini_yago.predecessors(acted, movie0)) >= degrees[len(degrees) // 2]
    assert degrees[0] >= 3 * max(degrees[len(degrees) // 2], 1)
