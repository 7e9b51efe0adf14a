"""Tests for the 1-gram/2-gram statistics catalog."""

import pytest

from repro.graph.builder import store_from_edges
from repro.stats.catalog import Catalog, UnigramStat, build_catalog


@pytest.fixture
def store():
    # A: fan-in 3->1; B: bridge; C: fan-out 1->2.
    return store_from_edges(
        {
            "A": [("1", "5"), ("2", "5"), ("3", "5"), ("4", "6")],
            "B": [("5", "9"), ("6", "9")],
            "C": [("9", "12"), ("9", "13")],
        }
    )


@pytest.fixture
def catalog(store):
    return build_catalog(store)


def pid(store, label):
    return store.dictionary.lookup(label)


def test_unigram_counts(store, catalog):
    a = catalog.unigram(pid(store, "A"))
    assert a == UnigramStat(count=4, distinct_subjects=4, distinct_objects=2)
    b = catalog.unigram(pid(store, "B"))
    assert b.count == 2 and b.distinct_objects == 1
    c = catalog.unigram(pid(store, "C"))
    assert c.avg_out == pytest.approx(2.0)


def test_unigram_avg_in(store, catalog):
    a = catalog.unigram(pid(store, "A"))
    assert a.avg_in == pytest.approx(2.0)  # 4 edges over 2 distinct objects


def test_unigram_unknown_label_zero(catalog):
    stat = catalog.unigram(99999)
    assert stat.count == 0 and stat.avg_out == 0.0
    assert catalog.unigram(None).count == 0


def test_bigram_os_path_join(store, catalog):
    # A.object joins B.subject at nodes 5 and 6.
    bigram = catalog.bigram(pid(store, "A"), pid(store, "B"), "os")
    assert bigram.join_nodes == 2
    # Pairs: at node 5, 3 A-edges × 1 B-edge; at node 6, 1 × 1 = total 4.
    assert bigram.join_pairs == 4


def test_bigram_os_equals_true_join_size(store, catalog):
    # |B ⋈ (o=s) C| : node 9 joins 2 B-edges × 2 C-edges = 4.
    bigram = catalog.bigram(pid(store, "B"), pid(store, "C"), "os")
    assert bigram.join_pairs == 4


def test_bigram_so_mirror(store, catalog):
    forward = catalog.bigram(pid(store, "A"), pid(store, "B"), "os")
    mirror = catalog.bigram(pid(store, "B"), pid(store, "A"), "so")
    assert forward == mirror


def test_bigram_oo_symmetric(store, catalog):
    # A and B share object node 9? A objects {5,6}; B objects {9}: none.
    assert catalog.bigram(pid(store, "A"), pid(store, "B"), "oo").join_nodes == 0
    # A with itself: both objects 5 and 6 shared; pairs counted with
    # multiplicity 3*3 + 1*1.
    self_oo = catalog.bigram(pid(store, "A"), pid(store, "A"), "oo")
    assert self_oo.join_nodes == 2
    assert self_oo.join_pairs == 10


def test_bigram_ss_fanout(store, catalog):
    # B and C share subject? B subjects {5,6}, C subjects {9}: none.
    assert catalog.bigram(pid(store, "B"), pid(store, "C"), "ss").join_nodes == 0


def test_bigram_ss_order_independent(store, catalog):
    ab = catalog.bigram(pid(store, "A"), pid(store, "B"), "ss")
    ba = catalog.bigram(pid(store, "B"), pid(store, "A"), "ss")
    assert ab == ba


def test_bigram_unknown_orientation_rejected(catalog):
    with pytest.raises(ValueError):
        catalog.bigram(0, 1, "xx")


def test_bigram_none_labels(catalog):
    assert catalog.bigram(None, 1, "os").join_pairs == 0


def test_totals(store, catalog):
    assert catalog.num_triples == store.num_triples
    assert catalog.num_nodes == store.num_nodes


def test_serialization_roundtrip(catalog):
    data = catalog.to_dict()
    restored = Catalog.from_dict(data)
    assert restored.unigrams == catalog.unigrams
    assert restored.bigrams == catalog.bigrams
    assert restored.num_triples == catalog.num_triples


def test_repr(catalog):
    assert "labels" in repr(catalog)


def test_catalog_on_yago(mini_yago, mini_yago_catalog):
    # Unigram counts must exactly match store counts for every label.
    for p in mini_yago.predicates():
        assert mini_yago_catalog.unigram(p).count == mini_yago.count(p)

