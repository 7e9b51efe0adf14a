"""Phase 1: answer-graph generation.

Drives the interleaved edge-extension / node-burnback loop of §3 over a
left-deep :class:`~repro.planner.plan.AGPlan`, then (for cyclic
queries) materializes the Triangulator's chords and optionally runs
edge burnback.

A :class:`GenerationTrace` can be attached to capture the AG state
after every extension and burnback step — this is how the worked
example of the paper's Fig. 2 is asserted in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.answer_graph import AnswerGraph
from repro.core.burnback import constrain_endpoints, edge_burnback, node_burnback
from repro.core.extension import extend_edge_bulk, incidence_of
from repro.core.triangles import drop_chords, materialize_chords
from repro.errors import PlanError
from repro.obs.trace import trace_span
from repro.planner.plan import AGPlan, Chordification, validate_connected_order
from repro.query.algebra import BoundQuery
from repro.utils.deadline import Deadline


@dataclass
class GenerationStats:
    """Measurements from one phase-1 run."""

    edge_walks: int = 0
    step_walks: list[int] = field(default_factory=list)
    burned_nodes: int = 0
    chord_pairs: int = 0
    edge_burnback_rounds: int = 0
    spurious_pairs_removed: int = 0


@dataclass
class GenerationTrace:
    """Step-by-step record of AG states (small queries only — the
    snapshots copy every relation)."""

    events: list[tuple] = field(default_factory=list)

    def record(self, kind: str, detail: object, ag: AnswerGraph) -> None:
        self.events.append((kind, detail, ag.snapshot()))

    def of_kind(self, kind: str) -> list[tuple]:
        return [e for e in self.events if e[0] == kind]


def generate_answer_graph(
    bound: BoundQuery,
    plan: AGPlan,
    chordification: Chordification | None = None,
    deadline: Deadline | None = None,
    edge_burnback_enabled: bool = False,
    keep_chords: bool = False,
    trace: GenerationTrace | None = None,
    lookahead: bool = True,
) -> tuple[AnswerGraph, GenerationStats]:
    """Generate the answer graph for ``bound`` along ``plan``.

    Parameters
    ----------
    chordification:
        The Triangulator's output for cyclic queries; ``None`` or a
        trivial chordification skips the chord phase.
    edge_burnback_enabled:
        Run triangle-consistency edge burnback after chords are
        materialized (the paper's experiments run *without* it; see
        Table 1's discussion — this flag is the ablation switch).
    keep_chords:
        Leave chord relations inside the returned AG (default: dropped
        so that phase 2 and |AG| accounting see only real query edges).
    lookahead:
        An extension that binds a variable for the first time keeps only
        the nodes the query's other edges on that variable can match in
        the store at all (:func:`repro.core.extension.lookahead_views`)
        — the nodes node burnback would remove once those edges are
        extended, never retrieved instead. The answer graph that comes
        out is the same either way; ``edge_walks``, ``step_walks`` and
        ``burned_nodes`` are lower. ``False`` is the paper's phase 1
        (its Fig. 2 trace and Table 1 walk counts) — the ablation
        switch.
    """
    if deadline is None:
        deadline = Deadline.unlimited()
    validate_connected_order(
        plan.order, [e.term_tokens() for e in bound.edges]
    )
    if len(plan.order) != len(bound.edges):
        raise PlanError(
            f"plan covers {len(plan.order)} of {len(bound.edges)} query edges"
        )
    incidence = incidence_of(bound) if lookahead else None

    ag = AnswerGraph(bound)
    stats = GenerationStats()

    for eid in plan.order:
        if ag.empty:
            stats.step_walks.append(0)
            continue
        edge = bound.edges[eid]
        result = extend_edge_bulk(ag, bound.store, edge, deadline, incidence)
        stats.edge_walks += result.walks
        stats.step_walks.append(result.walks)
        rel = ("e", eid)
        ag.register_relation(
            rel,
            edge.s_var,
            edge.o_var,
            forward=result.forward,
            backward=result.backward,
            predicate=result.predicate,
        )
        if trace is not None:
            trace.record("extend", eid, ag)

        removals = constrain_endpoints(ag, rel)
        if removals:
            seeds = None if trace is None else {v: sorted(ns) for v, ns in removals.items()}
            with trace_span("burnback", nested=True):
                stats.burned_nodes += node_burnback(ag, removals, deadline)
            if trace is not None:
                trace.record("burnback", seeds, ag)

    if chordification is not None and not chordification.is_trivial and not ag.empty:
        stats.chord_pairs = materialize_chords(ag, chordification, deadline)
        if trace is not None:
            trace.record("chords", None, ag)
        if edge_burnback_enabled and not ag.empty:
            with trace_span("burnback", nested=True):
                rounds, removed = edge_burnback(
                    ag, chordification.triangles, deadline
                )
            stats.edge_burnback_rounds = rounds
            stats.spurious_pairs_removed = removed
            if trace is not None:
                trace.record("edge-burnback", removed, ag)
        if not keep_chords:
            drop_chords(ag, chordification)

    return ag, stats
