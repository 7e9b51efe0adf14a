"""The catalog's per-node definition, kept as the tests' oracle.

:func:`repro.stats.catalog.build_catalog` sums every node's share of
every bigram in one vectorized pass. This module states the same
figures the slow, obvious way: a pure-Python loop over each node's
``{label: degree}`` vectors, read off the adjacency views, with the
sampled variant drawing its nodes exactly as the library does.
"""

from __future__ import annotations

import numpy as np

from repro.stats.catalog import BigramStat, Catalog, UnigramStat


def _bump(acc: dict, key: tuple[int, int, str], nodes: int, pairs: int) -> None:
    cell = acc.setdefault(key, [0, 0])
    cell[0] += nodes
    cell[1] += pairs


def add_node(
    acc: dict[tuple[int, int, str], list[int]],
    outs: "dict[int, int] | None",
    ins: "dict[int, int] | None",
    sign: int,
) -> None:
    """Add ``sign`` × one node's share of every bigram to ``acc``.

    Every label pair in ``ins × outs`` contributes to ``os``, every
    unordered pair in ``outs × outs`` to ``ss`` and in ``ins × ins`` to
    ``oo`` (stored once, ``p1 <= p2``); ``acc`` maps a bigram key to
    ``[join_nodes, join_pairs]``.
    """
    outs = outs or {}
    ins = ins or {}
    for p1, d1 in outs.items():
        for p2, d2 in outs.items():
            if p1 <= p2:
                _bump(acc, (p1, p2, "ss"), sign, sign * d1 * d2)
    for p1, d1 in ins.items():
        for p2, d2 in ins.items():
            if p1 <= p2:
                _bump(acc, (p1, p2, "oo"), sign, sign * d1 * d2)
    for p1, d1 in ins.items():  # p1's object is this node
        for p2, d2 in outs.items():  # p2's subject is this node
            _bump(acc, (p1, p2, "os"), sign, sign * d1 * d2)


def reference_catalog(store, sample_nodes: "int | None" = None, seed: int = 0) -> Catalog:
    """What ``build_catalog(store, sample_nodes, seed)`` must return."""
    unigrams = {}
    out_deg: dict[int, dict[int, int]] = {}
    in_deg: dict[int, dict[int, int]] = {}
    for p in store.predicates():
        forward, backward = store.adjacency(p), store.reverse_adjacency(p)
        if not forward:
            continue
        unigrams[p] = UnigramStat(
            sum(len(objs) for objs in forward.values()), len(forward), len(backward)
        )
        for s, objs in forward.items():
            out_deg.setdefault(s, {})[p] = len(objs)
        for o, subs in backward.items():
            in_deg.setdefault(o, {})[p] = len(subs)

    scan = sorted(store.nodes())
    scale = 1.0
    if sample_nodes is not None and sample_nodes < len(scan):
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(scan), size=sample_nodes, replace=False)
        scale = len(scan) / sample_nodes
        scan = [scan[i] for i in sorted(chosen)]

    acc: dict[tuple[int, int, str], list[int]] = {}
    for node in scan:
        add_node(acc, out_deg.get(node), in_deg.get(node), 1)
    bigrams = {
        key: BigramStat(n, pairs)
        if scale == 1.0
        else BigramStat(max(int(round(n * scale)), 1), max(int(round(pairs * scale)), 1))
        for key, (n, pairs) in acc.items()
    }
    return Catalog(
        unigrams, bigrams, store.num_triples, store.num_nodes, sampled=scale != 1.0
    )
