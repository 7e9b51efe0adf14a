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
offline from every node's ``{label: degree}`` vectors. This is what both
planners cost chords and early extensions with.

One numpy kernel, :func:`bigram_sums`, holds the definition of a node's
share: it takes one row per (node, label) with the degree, expands each
node's label pairs a bounded chunk at a time (:data:`CHUNK_PAIRS`) and
sums them exactly in ``int64``. :func:`build_catalog` feeds it the
store's degree columns; :func:`patch_catalog` feeds it the touched
nodes' old vectors with sign ``-1`` and their new ones with ``+1``.

The catalog is a plain value object: build it once per dataset with
:func:`build_catalog` (the paper's "computed offline" step), then share
it across planners, engines, and benchmarks. It can be serialized to a
JSON-compatible dict, bigrams in ascending key order whichever backend
the store uses. A writable store keeps it current with
:func:`patch_catalog`, which folds a batch of triple changes into a new
catalog in time proportional to the batch, not the store.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

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


#: Label pairs the bigram kernel expands at once: a chunk is a few
#: ``int64`` arrays of this length (about 1 MB together).
CHUNK_PAIRS = 1 << 14

#: Cells of the kernel's dense accumulator: the keys of as many left
#: labels as fit (at least one), two ``int64`` arrays of this length.
#: With both bounds, the kernel's memory beyond a few copies of its
#: input rows does not grow with the store.
DENSE_CELLS = 1 << 16

#: Orientation by the number of out-rows in a pair (in-in, in-out,
#: out-out): alphabetical, so a key's code sorts as its tuple does.
_ORIENTS = ("oo", "os", "ss")

#: ``(node, label, degree, sign)`` ``int64`` columns, one row per label
#: a node carries in one direction (see :func:`bigram_sums`).
Rows = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_NONE = np.zeros(0, np.int64)
_INT64_MAX = np.iinfo(np.int64).max


def _vectors(outs: Rows, ins: Rows):
    """Both sides' rows in one order: by degree vector, its in-rows
    before its out-rows, then by label.

    Returns ``(labels, key, degree, rest)``: the labels present,
    ascending, and per row its sort key ``(vector · 2 + (row is out))
    << bits | label index`` (``vector`` is ``node · 2 + (sign > 0)``;
    ``bits`` holds any label index), its degree, and the number of rows
    from it to the end of its vector. Node ids that would overflow the
    key are numbered densely first.
    """
    labels = np.sort(np.concatenate((outs[1], ins[1])))
    first = np.ones(len(labels), np.bool_)  # (np.unique would import numpy.ma)
    np.not_equal(labels[1:], labels[:-1], out=first[1:])
    labels = labels[first]
    bits = max(len(labels) - 1, 1).bit_length()
    key = np.concatenate((outs[0], ins[0]))
    if len(key) and not 0 <= key.min() <= key.max() < _INT64_MAX >> (bits + 2):
        key = np.unique(key, return_inverse=True)[1]
    key *= 4
    key += np.concatenate((outs[3] > 0, ins[3] > 0)) * 2
    key[: len(outs[0])] += 1
    key <<= bits
    key += labels.searchsorted(np.concatenate((outs[1], ins[1])))
    order = key.argsort()
    key = key[order]
    degree = np.concatenate((outs[2], ins[2]))[order]
    del order
    vector = key >> (bits + 1)
    edge = np.ones(len(key) + 1, np.bool_)  # a row starts a vector (or ends all)
    np.not_equal(vector[1:], vector[:-1], out=edge[1:-1])
    del vector
    bounds = edge.nonzero()[0]
    rest = bounds[1:].repeat(bounds[1:] - bounds[:-1])
    rest -= np.arange(len(key))
    return labels, key, degree, rest


def _sums(labels, key, degree, rest) -> dict[tuple[int, int, str], tuple[int, int]]:
    """:func:`bigram_sums` over :func:`_vectors`' rows. ``rest`` is
    consumed."""
    width = len(labels)
    if not width:
        return {}
    bits = max(width - 1, 1).bit_length()
    mask = (1 << bits) - 1
    row_cells = 3 * width  # one left label's cells
    per_block = max(1, DENSE_CELLS // row_cells)
    if per_block >= width:  # one block: rows in any order
        blocks = [(0, None)]
    else:  # rows block by block, each block's rows in their own order
        block = (key & mask) // per_block
        rows = block.argsort(kind="stable")
        cuts = block[rows].searchsorted(np.arange(width // per_block + 2))
        del block
        blocks = [
            (base, rows[lo:hi])
            for base, lo, hi in zip(range(0, width, per_block), cuts, cuts[1:])
            if lo < hi
        ]
    ids = labels.tolist()
    sums: dict[tuple[int, int, str], tuple[int, int]] = {}
    for base, rows in blocks:
        # The pairs of the rows up to each one, in place (one block: in
        # ``rest`` itself, which nothing reads again).
        ends = rest if rows is None else rest[rows]
        ends.cumsum(out=ends)
        acc_nodes = np.zeros(min(per_block, width - base) * row_cells, np.int64)
        acc_pairs = np.zeros(len(acc_nodes), np.int64)
        a = 0
        while a < len(ends):
            done = int(ends[a - 1]) if a else 0
            b = max(a + 1, int(ends.searchsorted(done + CHUNK_PAIRS, "right")))
            left = np.arange(a, b) if rows is None else rows[a:b]
            before = ends[a - 1 : b - 1] if a else np.concatenate(([0], ends[: b - 1]))
            c = ends[a:b] - before
            # Pair t of the chunk is (left row k, row left[k] + t - the
            # chunk's pairs before k's).
            right = (left - (before - done)).repeat(c)
            right += np.arange(len(right))
            row = key[left]
            sign = (row >> (bits + 1) & 1) * 2 - 1
            cell = (((row & mask) - base) * row_cells + (row >> bits & 1)).repeat(c)
            row = key[right]
            cell += (row & mask) * 3 + (row >> bits & 1)
            np.add.at(acc_nodes, cell, sign.repeat(c))
            np.add.at(acc_pairs, cell, (sign * degree[left]).repeat(c) * degree[right])
            a = b
        hit = (acc_nodes | acc_pairs).nonzero()[0]
        for cell, n, pairs in zip(
            (hit + base * row_cells).tolist(), acc_nodes[hit].tolist(), acc_pairs[hit].tolist()
        ):
            pair, orient = divmod(cell, 3)
            p1, p2 = divmod(pair, width)
            sums[ids[p1], ids[p2], _ORIENTS[orient]] = (n, pairs)
    return sums


def bigram_sums(outs: Rows, ins: Rows) -> dict[tuple[int, int, str], tuple[int, int]]:
    """Every degree vector's share of every bigram, summed exactly:
    ``(p1, p2, orient) -> (Σ sign, Σ sign · d1 · d2)``.

    ``outs`` holds one row per (node, out-label) with the node's
    out-degree under that label, ``ins`` the same for in-labels. A
    node's rows of one sign form one degree vector; vectors of opposite
    sign never pair, so the delta patch passes a node's old vectors
    (sign ``-1``) beside its new ones (``+1``). A vector contributes one
    term to ``ss`` per unordered pair of its out-labels (``p1 <= p2``),
    to ``oo`` per unordered pair of its in-labels, and to ``os`` per
    (in-label, out-label) pair: the catalog's one definition of a node's
    share. The sums are ``int64`` (exact while they stay below 2**63),
    keys whose two sums are both zero are left out, and the rest come in
    ascending key order.

    With a vector's in-rows sorted before its out-rows (:func:`_vectors`),
    every one of those pairs is a row and a later row of the same
    vector, so each row pairs with one contiguous run: itself up to the
    vector's end. Labels are numbered densely; a pair's cell is
    ``(label1 · L + label2) · 3 + out-rows in the pair`` over the ``L``
    labels present, so the cells with a sum come out in key order. Pairs
    are expanded :data:`CHUNK_PAIRS` at a time into accumulators of at
    most :data:`DENSE_CELLS` cells, a block of left labels at a time.
    """
    return _sums(*_vectors(outs, ins))


def _degree_rows(store: TripleStore) -> tuple[dict[int, UnigramStat], Rows, Rows]:
    """Every predicate's unigram, and the ``(node, label, degree, +1)``
    rows of its subjects (out) and of its objects (in)."""
    unigrams: dict[int, UnigramStat] = {}
    columns: tuple[list, list] = ([], [])  # (keys, degrees) pairs per direction
    for p in store.predicates():
        fwd, rev = store.degree_columns(p), store.degree_columns(p, reverse=True)
        if len(fwd[0]):
            unigrams[p] = UnigramStat(int(fwd[1].sum()), len(fwd[0]), len(rev[0]))
            columns[0].append(fwd)
            columns[1].append(rev)
    labels = np.fromiter(unigrams, np.int64, len(unigrams))
    sides = []
    for pairs in columns:
        node = np.concatenate([keys for keys, _ in pairs] or [_NONE])
        sides.append((
            node,
            np.repeat(labels, [len(keys) for keys, _ in pairs]),
            np.concatenate([degrees for _, degrees in pairs] or [_NONE]),
            np.broadcast_to(np.int64(1), node.shape),
        ))
    return unigrams, sides[0], sides[1]


def _rows(rows: list[tuple[int, int, int, int]]) -> Rows:
    """Rows from ``(node, label, degree, sign)`` tuples."""
    table = np.array(rows, np.int64).reshape(-1, 4)
    return table[:, 0], table[:, 1], table[:, 2], table[:, 3]


def build_catalog(
    store: TripleStore,
    sample_nodes: int | None = None,
    seed: int = 0,
) -> Catalog:
    """Compute the catalog from the store's degree columns.

    Each predicate's forward and reverse degree columns
    (:meth:`~repro.graph.store.TripleStore.degree_columns`) give its
    unigram — edge count, distinct subjects, distinct objects — and one
    row per (node, label) for the bigram kernel, :func:`bigram_sums`.
    For each node ``n``, every label pair in ``in-labels(n) ×
    out-labels(n)`` contributes to ``os``/``so``, every pair in ``out ×
    out`` to ``ss``, and every pair in ``in × in`` to ``oo``. The work
    is O(R log R + Σ_n |labels(n)|²) over the R (node, label) rows,
    vectorized. Memory is a few ``int64`` copies of the rows, one chunk
    of :data:`CHUNK_PAIRS` expanded pairs and one accumulator of at most
    :data:`DENSE_CELLS` cells, however many pairs there are: about 7 MB
    at peak for the 128k rows and 600k pairs of the benchmark fixture.

    ``sample_nodes`` makes the bigram pass *sampled*: only that many
    uniformly-drawn nodes are scanned and every bigram figure is scaled
    by ``num_nodes / sample_nodes`` (a Horvitz–Thompson estimate). This
    is how the paper-scale "computed offline" step stays feasible on
    graphs where a full node scan is too expensive; estimates remain
    unbiased, and the planners only use them for relative comparisons.

    Bigrams come in ascending key order, so equal stores give equal
    ``to_dict()`` output whatever their backend. The pass reads only
    the degree columns, so it is identical across physical layouts
    (hashdict, columnar, ...), which the backend-parity suite asserts.
    """
    unigrams, out_rows, in_rows = _degree_rows(store)
    all_nodes = store.nodes()
    scale = 1.0
    if sample_nodes is not None and sample_nodes < len(all_nodes):
        node_list = np.fromiter(all_nodes, np.int64, len(all_nodes))
        node_list.sort()
        rng = np.random.default_rng(seed)
        chosen = node_list[rng.choice(len(node_list), size=sample_nodes, replace=False)]
        keep = np.isin(out_rows[0], chosen)
        out_rows = tuple(col[keep] for col in out_rows)
        keep = np.isin(in_rows[0], chosen)
        in_rows = tuple(col[keep] for col in in_rows)
        scale = len(node_list) / sample_nodes

    vectors = _vectors(out_rows, in_rows)
    del out_rows, in_rows  # free the rows before the pairs are expanded
    sums = _sums(*vectors)
    if scale == 1.0:
        bigrams = {key: BigramStat(n, pairs) for key, (n, pairs) in sums.items()}
    else:
        bigrams = {
            key: BigramStat(
                max(int(round(n * scale)), 1), max(int(round(pairs * scale)), 1)
            )
            for key, (n, pairs) in sums.items()
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
    to are rewritten: one :func:`bigram_sums` pass over the touched
    nodes' old vectors (sign ``-1``) and new ones (``+1``), keys
    reaching zero dropped. The result ``==`` ``build_catalog`` of the
    store, key order included.
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
    out_rows: list[tuple[int, int, int, int]] = []
    in_rows: list[tuple[int, int, int, int]] = []
    for node, (outs, ins) in degrees.items():
        old_outs = _before(outs, d_out.get(node))
        old_ins = _before(ins, d_in.get(node))
        _count_transitions(d_subjects, old_outs, outs)
        _count_transitions(d_objects, old_ins, ins)
        d_nodes += bool(outs or ins) - bool(old_outs or old_ins)
        for rows, old, new in ((out_rows, old_outs, outs), (in_rows, old_ins, ins)):
            rows.extend((node, p, d, -1) for p, d in old.items())
            rows.extend((node, p, d, 1) for p, d in new.items())
    acc = bigram_sums(_rows(out_rows), _rows(in_rows))

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
        n, pairs = bigrams.get(key, _EMPTY_BIGRAM)
        if n + d_n:
            bigrams[key] = BigramStat(n + d_n, pairs + d_pairs)
        else:
            del bigrams[key]
    if any(key not in catalog.bigrams for key in acc):
        bigrams = dict(sorted(bigrams.items()))  # build_catalog's order

    return Catalog(
        unigrams,
        bigrams,
        catalog.num_triples + sum(d_count.values()),
        catalog.num_nodes + d_nodes,
    )
