"""Tests for the YAGO-like schema declarations."""

from repro.datasets import schema
from repro.datasets.paper_queries import (
    PAPER_DIAMOND_LABELS,
    PAPER_SNOWFLAKE_LABELS,
)


def predicate_map():
    return {p.name: p for p in schema.core_predicates()}


def test_every_paper_label_has_a_spec():
    specs = predicate_map()
    used = {
        label
        for labels in PAPER_SNOWFLAKE_LABELS + PAPER_DIAMOND_LABELS
        for label in labels
    }
    missing = used - set(specs)
    assert not missing, f"paper queries use undeclared predicates: {missing}"


def test_channel_parameters_sane():
    for spec in schema.core_predicates():
        for ch in spec.channels:
            assert 0 < ch.coverage <= 1.0, spec.name
            assert ch.mean_out >= 1.0, spec.name
            assert ch.zipf >= 0.0, spec.name
            assert ch.domain in schema.TYPE_NAMES or ch.domain == schema.ANY
            assert ch.range in schema.TYPE_NAMES or ch.range == schema.ANY


def test_snowflake_type_chains_satisfiable():
    """Static check: for every Table-1 snowflake, each arm's leaf labels
    accept the arm's type (range of the arm label intersects the leaf
    label's domains)."""
    specs = predicate_map()

    def ranges(label):
        out = set()
        for ch in specs[label].channels:
            out.add(ch.range)
            if ch.range == schema.ANY:
                out.update(schema.TYPE_NAMES)
        return out

    def domains(label):
        out = set()
        for ch in specs[label].channels:
            out.add(ch.domain)
            if ch.domain == schema.ANY:
                out.update(schema.TYPE_NAMES)
        return out

    for labels in PAPER_SNOWFLAKE_LABELS:
        arms = {
            "m": (labels[0], (labels[3], labels[4])),
            "y": (labels[1], (labels[5], labels[6])),
            "z": (labels[2], (labels[7], labels[8])),
        }
        for arm, (arm_label, leaves) in arms.items():
            arm_types = ranges(arm_label)
            for leaf in leaves:
                assert arm_types & domains(leaf), (
                    f"{arm_label} -> {leaf}: no shared type for arm {arm}"
                )
        # All three arm labels share Person as domain for the center ?x.
        center = domains(labels[0]) & domains(labels[1]) & domains(labels[2])
        assert center


def test_diamond_type_chains_satisfiable():
    specs = predicate_map()

    def ranges(label):
        out = set()
        for ch in specs[label].channels:
            out.add(ch.range)
            if ch.range == schema.ANY:
                out.update(schema.TYPE_NAMES)
        return out

    def domains(label):
        out = set()
        for ch in specs[label].channels:
            out.add(ch.domain)
            if ch.domain == schema.ANY:
                out.update(schema.TYPE_NAMES)
        return out

    for l1, l2, l3, l4 in PAPER_DIAMOND_LABELS:
        assert domains(l1) & domains(l2), "source ?x must exist"
        assert domains(l3) & domains(l4), "source ?y must exist"
        assert ranges(l1) & ranges(l3), "?e must be reachable by both"
        assert ranges(l2) & ranges(l4), "?z must be reachable by both"


def test_target_count_matches_paper():
    assert schema.TARGET_PREDICATE_COUNT == 104
    assert len(schema.CORE_PREDICATE_NAMES) == 24


def test_channels_of_one_predicate_never_share_a_pair():
    """Each channel of a predicate pairs its own (domain, range) types,
    and a multi-channel predicate has no ``Any`` side: the generator's
    per-channel fallback relies on it, deciding whether a channel adds
    a new edge from that channel's sampled pairs alone."""
    for spec in schema.core_predicates():
        pairs = [(ch.domain, ch.range) for ch in spec.channels]
        assert len(set(pairs)) == len(pairs), spec.name
        if len(pairs) > 1:
            assert schema.ANY not in {t for pair in pairs for t in pair}, spec.name
