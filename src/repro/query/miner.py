"""The query miner: instantiate templates into valid, non-empty queries.

The paper (§5): "we implemented a query miner that generates queries
over a dataset using query templates (with placeholders for edge
labels). The query miner then generates valid, non-empty queries."

Sampling label tuples uniformly and testing emptiness is hopeless for a
9-slot snowflake over 100+ predicates, so the miner works backwards
from a *witness embedding*: it performs a random homomorphism walk of
the template over the data graph, reading off one edge label per slot.
Every assignment produced this way is non-empty by construction; a
configurable verifier can additionally confirm emptiness/size with a
real engine.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import DatasetError, QueryError
from repro.graph.store import TripleStore
from repro.query.model import ConjunctiveQuery
from repro.query.templates import QueryTemplate, TemplateEdge
from repro.utils import domains
from repro.utils.rng import make_rng


class QueryMiner:
    """Mine non-empty template instantiations from a data graph.

    Parameters
    ----------
    store:
        The data graph to mine against.
    seed:
        Seed (or generator) for reproducible mining.
    forbidden_labels:
        Predicate surface strings never to use (e.g. bookkeeping
        predicates such as ``rdf:type`` when mining "semantic" queries).
    """

    def __init__(
        self,
        store: TripleStore,
        seed: int | np.random.Generator = 0,
        forbidden_labels: Sequence[str] | None = None,
    ):
        self.store = store
        self.rng = make_rng(seed)
        forbidden = set(forbidden_labels or ())
        self._forbidden_ids = {
            pid
            for pid in store.predicates()
            if store.dictionary.decode(pid) in forbidden
        }
        self._all_nodes = list(store.nodes())

    # ------------------------------------------------------------------

    def mine(
        self,
        template: QueryTemplate,
        count: int,
        max_attempts: int | None = None,
        distinct_labels: bool = False,
    ) -> list[ConjunctiveQuery]:
        """Return ``count`` distinct non-empty instantiations.

        Each returned query is guaranteed non-empty (it has a witness
        embedding found during mining). ``distinct_labels`` additionally
        requires all slots of one query to use pairwise-distinct labels.

        Raises :class:`QueryError` unless ``count`` is in 1..``MAX_REPEAT``
        (:mod:`repro.utils.domains`; the default budget is 400 attempts
        per query), and :class:`DatasetError` when the attempt budget
        is spent before ``count`` distinct assignments are found — a
        sign the dataset is too small for the template.
        """
        try:
            domains.repeat(count, "count")
        except ValueError as exc:
            raise QueryError(str(exc)) from None
        budget = max_attempts if max_attempts is not None else max(1000, 400 * count)
        seen: set[tuple[str, ...]] = set()
        queries: list[ConjunctiveQuery] = []
        attempts = 0
        while len(queries) < count and attempts < budget:
            attempts += 1
            labels = self.sample_assignment(template)
            if labels is None:
                continue
            if distinct_labels and len(set(labels)) != len(labels):
                continue
            key = tuple(labels)
            if key in seen:
                continue
            seen.add(key)
            queries.append(
                template.instantiate(
                    labels, name=f"{template.name}#{len(queries) + 1}"
                )
            )
        if len(queries) < count:
            raise DatasetError(
                f"mined only {len(queries)}/{count} queries for template "
                f"{template.name!r} after {attempts} attempts; "
                "the dataset is likely too small or too sparse"
            )
        return queries

    def sample_assignment(self, template: QueryTemplate) -> list[str] | None:
        """One random-walk attempt; returns slot labels or ``None``.

        Walks the template edges in an order where each edge has at
        least one already-bound endpoint, sampling a concrete data edge
        for it; the predicate of the sampled edge becomes the slot's
        label. Returns ``None`` when the walk dead-ends.
        """
        order = _walk_order(template)
        binding: dict[str, int] = {}
        labels: dict[int, int] = {}
        for edge in order:
            s_bound = edge.subject in binding
            o_bound = edge.object in binding
            if not s_bound and not o_bound:
                picked = self._sample_seed_edge()
                if picked is None:
                    return None
                s, p, o = picked
                binding[edge.subject] = s
                binding[edge.object] = o
                labels[edge.slot] = p
            elif s_bound and not o_bound:
                picked = self._sample_outgoing(binding[edge.subject])
                if picked is None:
                    return None
                p, o = picked
                binding[edge.object] = o
                labels[edge.slot] = p
            elif o_bound and not s_bound:
                picked = self._sample_incoming(binding[edge.object])
                if picked is None:
                    return None
                p, s = picked
                binding[edge.subject] = s
                labels[edge.slot] = p
            else:
                candidates = [
                    p
                    for p in self.store.labels_between(
                        binding[edge.subject], binding[edge.object]
                    )
                    if p not in self._forbidden_ids
                ]
                if not candidates:
                    return None
                labels[edge.slot] = candidates[int(self.rng.integers(len(candidates)))]
        decode = self.store.dictionary.decode
        return [decode(labels[slot]) for slot in range(template.num_slots)]

    # ------------------------------------------------------------------

    def _sample_seed_edge(self) -> tuple[int, int, int] | None:
        """A uniformly random node's random outgoing edge."""
        for _ in range(32):
            node = self._all_nodes[int(self.rng.integers(len(self._all_nodes)))]
            picked = self._sample_outgoing(node)
            if picked is not None:
                p, o = picked
                return node, p, o
        return None

    def _sample_outgoing(self, node: int) -> tuple[int, int] | None:
        """A random (predicate, object) leaving ``node``, or ``None``."""
        by_p = self.store.out_edges(node)
        candidates = [p for p in by_p if p not in self._forbidden_ids]
        if not candidates:
            return None
        p = candidates[int(self.rng.integers(len(candidates)))]
        objs = by_p[p]
        o = _sample_from_set(objs, self.rng)
        return p, o

    def _sample_incoming(self, node: int) -> tuple[int, int] | None:
        """A random (predicate, subject) entering ``node``, or ``None``."""
        by_p = self.store.in_edges(node)
        candidates = [p for p in by_p if p not in self._forbidden_ids]
        if not candidates:
            return None
        p = candidates[int(self.rng.integers(len(candidates)))]
        subs = by_p[p]
        s = _sample_from_set(subs, self.rng)
        return p, s


def _sample_from_set(items: set[int], rng: np.random.Generator) -> int:
    target = int(rng.integers(len(items)))
    for i, item in enumerate(items):
        if i == target:
            return item
    raise AssertionError("unreachable")  # pragma: no cover


def _walk_order(template: QueryTemplate) -> list[TemplateEdge]:
    """Order template edges so each has a previously-bound endpoint.

    Plain BFS over the template's connectivity; raises
    :class:`QueryError` for disconnected templates.
    """
    remaining = list(template.edges)
    if not remaining:
        raise QueryError("template has no edges")
    order = [remaining.pop(0)]
    bound = {order[0].subject, order[0].object}
    while remaining:
        for i, edge in enumerate(remaining):
            if edge.subject in bound or edge.object in bound:
                order.append(remaining.pop(i))
                bound.add(edge.subject)
                bound.add(edge.object)
                break
        else:
            raise QueryError(
                f"template {template.name!r} is disconnected; cannot mine"
            )
    return order
