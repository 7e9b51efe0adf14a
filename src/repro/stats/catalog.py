"""The offline 1-gram / 2-gram edge-label statistics catalog.

**1-gram** statistics describe a single edge label ``L``: how many
``L``-edges the graph has and over how many distinct subjects/objects
they spread (hence average fan-out/fan-in).

**2-gram** statistics describe how two labels ``L1``, ``L2`` connect.
For each of the four join orientations — which position of ``L1`` meets
which position of ``L2`` — the catalog records how many *nodes* are
shared and how many *edge pairs* join through them:

====== ======================================== =======================
orient meaning                                   example pattern
====== ======================================== =======================
``os`` object of L1 = subject of L2              path ``-L1-> n -L2->``
``oo`` object of L1 = object of L2               fan-in ``-L1-> n <-L2-``
``ss`` subject of L1 = subject of L2             fan-out ``<-L1- n -L2->``
``so`` subject of L1 = object of L2              reverse path
====== ======================================== =======================

``join_pairs`` for orientation ``os`` is exactly
``|L1 ⋈ (o=s) L2|`` — the true size of the two-edge join — computed
offline in one pass over the graph's nodes. This is what both planners
cost chords and early extensions with.

The catalog is a plain value object: build it once per dataset with
:func:`build_catalog` (the paper's "computed offline" step), then share
it across planners, engines, and benchmarks. It can be serialized to a
JSON-compatible dict. A writable store keeps it current with
:func:`patch_catalog`, which folds a batch of triple changes into a new
catalog in time proportional to the batch, not the store.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from repro.graph.store import TripleStore

ORIENTATIONS = ("os", "oo", "ss", "so")


class UnigramStat(NamedTuple):
    """Per-label statistics."""

    count: int  # number of edges with this label
    distinct_subjects: int
    distinct_objects: int

    @property
    def avg_out(self) -> float:
        """Average fan-out of a subject that has this label at all."""
        return self.count / self.distinct_subjects if self.distinct_subjects else 0.0

    @property
    def avg_in(self) -> float:
        """Average fan-in of an object that has this label at all."""
        return self.count / self.distinct_objects if self.distinct_objects else 0.0


class BigramStat(NamedTuple):
    """Per-(label-pair, orientation) join statistics."""

    join_nodes: int  # distinct shared nodes
    join_pairs: int  # exact two-edge join cardinality


_EMPTY_BIGRAM = BigramStat(0, 0)


class Catalog:
    """Immutable container of unigram and bigram label statistics.

    The catalog is *frozen*: after construction its attributes cannot be
    rebound, and it is hashable by content (a cached digest over all
    statistics), so it can key caches and be shared freely across
    engines and service threads. The mappings themselves must not be
    mutated by callers.

    ``sampled`` marks bigram figures as scaled estimates from a node
    sample (see :func:`build_catalog`); it is provenance, not content,
    so it takes no part in equality or hashing. Exact catalogs are the
    only ones :func:`patch_catalog` may maintain incrementally.
    """

    __slots__ = (
        "unigrams", "bigrams", "num_triples", "num_nodes", "sampled", "_hash"
    )

    def __init__(
        self,
        unigrams: dict[int, UnigramStat],
        bigrams: dict[tuple[int, int, str], BigramStat],
        num_triples: int,
        num_nodes: int,
        sampled: bool = False,
    ):
        object.__setattr__(self, "unigrams", unigrams)
        object.__setattr__(self, "bigrams", bigrams)
        object.__setattr__(self, "num_triples", num_triples)
        object.__setattr__(self, "num_nodes", num_nodes)
        object.__setattr__(self, "sampled", sampled)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"Catalog is frozen; cannot assign attribute {name!r}"
        )

    def content_key(self) -> tuple:
        """A hashable canonical form of every statistic in the catalog."""
        return (
            self.num_triples,
            self.num_nodes,
            tuple(sorted(self.unigrams.items())),
            tuple(sorted(self.bigrams.items())),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Catalog):
            return NotImplemented
        return (
            self.num_triples == other.num_triples
            and self.num_nodes == other.num_nodes
            and self.unigrams == other.unigrams
            and self.bigrams == other.bigrams
        )

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(self.content_key())
            object.__setattr__(self, "_hash", cached)
        return cached

    # ------------------------------------------------------------------

    def unigram(self, p: int | None) -> UnigramStat:
        """Stats for label ``p`` (zeros for unknown/``None`` labels)."""
        if p is None:
            return UnigramStat(0, 0, 0)
        return self.unigrams.get(p, UnigramStat(0, 0, 0))

    def bigram(self, p1: int | None, p2: int | None, orient: str) -> BigramStat:
        """Join stats for ``(p1, p2)`` under ``orient``.

        Orientation is from ``p1``'s perspective then ``p2``'s: ``"os"``
        joins the object of ``p1`` with the subject of ``p2``. Unknown
        labels yield zeros.
        """
        if orient not in ORIENTATIONS:
            raise ValueError(f"unknown orientation {orient!r}")
        if p1 is None or p2 is None:
            return _EMPTY_BIGRAM
        stat = self.bigrams.get((p1, p2, orient))
        if stat is not None:
            return stat
        # Bigrams are stored once per unordered pair where symmetric:
        # (p1,p2,"oo") == (p2,p1,"oo") and likewise for "ss"; and
        # (p1,p2,"os") == (p2,p1,"so"). Fall back to the mirror.
        mirror = {"os": "so", "so": "os", "oo": "oo", "ss": "ss"}[orient]
        return self.bigrams.get((p2, p1, mirror), _EMPTY_BIGRAM)

    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible representation (for offline persistence)."""
        data = {
            "num_triples": self.num_triples,
            "num_nodes": self.num_nodes,
            "unigrams": {str(p): list(u) for p, u in self.unigrams.items()},
            "bigrams": {
                f"{p1},{p2},{orient}": list(b)
                for (p1, p2, orient), b in self.bigrams.items()
            },
        }
        if self.sampled:
            data["sampled"] = True
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Catalog":
        unigrams = {int(p): UnigramStat(*u) for p, u in data["unigrams"].items()}
        bigrams = {}
        for key, b in data["bigrams"].items():
            p1, p2, orient = key.split(",")
            bigrams[(int(p1), int(p2), orient)] = BigramStat(*b)
        return cls(
            unigrams,
            bigrams,
            data["num_triples"],
            data["num_nodes"],
            sampled=bool(data.get("sampled", False)),
        )

    def __repr__(self) -> str:
        return (
            f"Catalog({len(self.unigrams)} labels, {len(self.bigrams)} bigram "
            f"entries, {self.num_triples} triples)"
        )


def _bump(acc: dict, key: tuple[int, int, str], nodes: int, pairs: int) -> None:
    cell = acc.get(key)
    if cell is None:
        acc[key] = [nodes, pairs]
    else:
        cell[0] += nodes
        cell[1] += pairs


def _add_node(
    acc: dict[tuple[int, int, str], list[int]],
    outs: "dict[int, int] | None",
    ins: "dict[int, int] | None",
    sign: int,
) -> None:
    """Add ``sign`` × one node's share of every bigram to ``acc``.

    ``outs``/``ins`` are the node's ``{label: degree}`` vectors. Every
    label pair in ``ins × outs`` contributes to ``os``, every unordered
    pair in ``outs × outs`` to ``ss`` and in ``ins × ins`` to ``oo``
    (stored once, ``p1 <= p2``). ``acc`` maps a bigram key to
    ``[join_nodes, join_pairs]``. The one definition of a node's
    contribution, shared by the full build (``sign=1`` for every node)
    and the delta patch (``-1`` for a touched node's old vectors, ``+1``
    for its new ones).
    """
    if outs:
        for p1, d1 in outs.items():
            for p2, d2 in outs.items():
                if p1 <= p2:
                    _bump(acc, (p1, p2, "ss"), sign, sign * d1 * d2)
    if ins:
        for p1, d1 in ins.items():
            for p2, d2 in ins.items():
                if p1 <= p2:
                    _bump(acc, (p1, p2, "oo"), sign, sign * d1 * d2)
    if outs and ins:
        for p1, d1 in ins.items():  # p1's object is this node
            for p2, d2 in outs.items():  # p2's subject is this node
                _bump(acc, (p1, p2, "os"), sign, sign * d1 * d2)


def build_catalog(
    store: TripleStore,
    sample_nodes: int | None = None,
    seed: int = 0,
) -> Catalog:
    """Compute the catalog in one pass over the store.

    Unigrams come straight from the predicate-first indexes (always
    exact). Bigrams are accumulated node-at-a-time: for each node ``n``,
    every label pair in ``in-labels(n) × out-labels(n)`` contributes to
    ``os``/``so``, every pair in ``out × out`` to ``ss``, and every pair
    in ``in × in`` to ``oo``. Runtime is O(Σ_n |labels(n)|²), which is
    small for heterogeneous graphs where each node carries a handful of
    labels.

    ``sample_nodes`` makes the bigram pass *sampled*: only that many
    uniformly-drawn nodes are scanned and every bigram figure is scaled
    by ``num_nodes / sample_nodes`` (a Horvitz–Thompson estimate). This
    is how the paper-scale "computed offline" step stays feasible on
    graphs where a full node scan is too expensive; estimates remain
    unbiased, and the planners only use them for relative comparisons.

    The pass consumes only storage-backend protocol views — the
    per-predicate cardinality summaries and the forward/reverse
    adjacency mappings — so it is identical across physical layouts
    (hashdict, columnar, ...), which the backend-parity suite asserts.
    """
    unigrams: dict[int, UnigramStat] = {
        p: UnigramStat(
            summary.count, summary.distinct_subjects, summary.distinct_objects
        )
        for p, summary in sorted(store.predicate_summaries().items())
    }

    # Per-node label incidence with degrees, read off the adjacency
    # views (one len() per index run — no per-node point lookups).
    out_deg: dict[int, dict[int, int]] = {}  # node -> {label: out-degree}
    in_deg: dict[int, dict[int, int]] = {}
    for p in store.predicates():
        for s, objs in store.adjacency(p).items():
            out_deg.setdefault(s, {})[p] = len(objs)
        for o, subs in store.reverse_adjacency(p).items():
            in_deg.setdefault(o, {})[p] = len(subs)

    all_nodes = store.nodes()
    scale = 1.0
    if sample_nodes is not None and sample_nodes < len(all_nodes):
        import numpy as np

        rng = np.random.default_rng(seed)
        node_list = sorted(all_nodes)
        chosen = rng.choice(len(node_list), size=sample_nodes, replace=False)
        scan_nodes: Iterable[int] = (node_list[i] for i in sorted(chosen))
        scale = len(node_list) / sample_nodes
    else:
        scan_nodes = all_nodes

    acc: dict[tuple[int, int, str], list[int]] = {}
    for node in scan_nodes:
        _add_node(acc, out_deg.get(node), in_deg.get(node), 1)

    if scale == 1.0:
        bigrams = {key: BigramStat(n, pairs) for key, (n, pairs) in acc.items()}
    else:
        bigrams = {
            key: BigramStat(
                max(int(round(n * scale)), 1), max(int(round(pairs * scale)), 1)
            )
            for key, (n, pairs) in acc.items()
        }
    return Catalog(
        unigrams=unigrams,
        bigrams=bigrams,
        num_triples=store.num_triples,
        num_nodes=store.num_nodes,
        sampled=scale != 1.0,
    )


def _before(new: dict[int, int], delta: "dict[int, int] | None") -> dict[int, int]:
    """A degree vector as it stood before ``delta`` was applied to it."""
    if not delta:
        return new
    old = dict(new)
    for p, d in delta.items():
        was = old.get(p, 0) - d
        if was:
            old[p] = was
        else:
            old.pop(p, None)
    return old


def _count_transitions(
    counts: dict[int, int], old: dict[int, int], new: dict[int, int]
) -> None:
    """Labels a node gained (+1) or lost (-1) between two vectors."""
    for p in new.keys() - old.keys():
        counts[p] = counts.get(p, 0) + 1
    for p in old.keys() - new.keys():
        counts[p] = counts.get(p, 0) - 1


def patch_catalog(
    catalog: Catalog,
    changes: Iterable[tuple[int, int, int, int]],
    degrees: dict[int, tuple[dict[int, int], dict[int, int]]],
) -> Catalog:
    """The exact catalog after ``changes``, derived from the one before.

    ``changes`` are the ``(s, p, o, ±1)`` triples actually stored or
    deleted since ``catalog`` (which must be exact, not sampled) was
    current; ``degrees`` maps every endpoint appearing in them to its
    *current* ``({label: out-degree}, {label: in-degree})`` vectors
    (:meth:`StorageBackend.label_degrees`). A node's old vectors follow
    by subtracting its net changes, so nothing else of the store is
    read: unigrams and the node/triple totals move by counted
    transitions, and only the bigram keys the touched nodes contribute
    to are rewritten (old contribution out, new one in, keys reaching
    zero dropped). The result ``==`` ``build_catalog`` of the store.
    """
    d_out: dict[int, dict[int, int]] = {}
    d_in: dict[int, dict[int, int]] = {}
    d_count: dict[int, int] = {}
    for s, p, o, sign in changes:
        d_count[p] = d_count.get(p, 0) + sign
        row = d_out.setdefault(s, {})
        row[p] = row.get(p, 0) + sign
        row = d_in.setdefault(o, {})
        row[p] = row.get(p, 0) + sign

    d_subjects: dict[int, int] = {}
    d_objects: dict[int, int] = {}
    d_nodes = 0
    acc: dict[tuple[int, int, str], list[int]] = {}
    for node, (outs, ins) in degrees.items():
        old_outs = _before(outs, d_out.get(node))
        old_ins = _before(ins, d_in.get(node))
        _count_transitions(d_subjects, old_outs, outs)
        _count_transitions(d_objects, old_ins, ins)
        d_nodes += bool(outs or ins) - bool(old_outs or old_ins)
        _add_node(acc, old_outs, old_ins, -1)
        _add_node(acc, outs, ins, 1)

    unigrams = dict(catalog.unigrams)
    for p in d_count.keys() | d_subjects.keys() | d_objects.keys():
        count, subjects, objects = unigrams.get(p, (0, 0, 0))
        count += d_count.get(p, 0)
        if count:
            unigrams[p] = UnigramStat(
                count,
                subjects + d_subjects.get(p, 0),
                objects + d_objects.get(p, 0),
            )
        else:
            unigrams.pop(p, None)
    if unigrams.keys() - catalog.unigrams.keys():
        unigrams = dict(sorted(unigrams.items()))  # build_catalog's order

    bigrams = dict(catalog.bigrams)
    for key, (d_n, d_pairs) in acc.items():
        if d_n or d_pairs:
            n, pairs = bigrams.get(key, _EMPTY_BIGRAM)
            if n + d_n:
                bigrams[key] = BigramStat(n + d_n, pairs + d_pairs)
            else:
                del bigrams[key]

    return Catalog(
        unigrams,
        bigrams,
        catalog.num_triples + sum(d_count.values()),
        catalog.num_nodes + d_nodes,
    )
