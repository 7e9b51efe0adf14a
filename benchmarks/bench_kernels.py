"""Set-at-a-time kernels vs the tuple-at-a-time reference.

Times phase 1 (answer-graph generation) on four synthetic workloads —
chain, diamond, diamond with edge burnback, snowflake — whose layered
stores have the chunky per-node fan-out that bulk ``set``/``dict``
algebra is built for. Each workload races
:func:`repro.core.generation.generate_answer_graph` against the retained
pre-kernel :func:`repro.core.reference.generate_answer_graph_reference`
after asserting their outputs are bit-identical. Both run in the default
setting, look-ahead on: the layered stores have no dangling nodes, so
the views filter nothing and the race is of what they cost — one subset
test per step, after which the kernels copy their buckets as they do
without look-ahead, against one membership test per tuple.

Both sides are timed to the same product: an answer graph indexed in
both directions. The reference builds the two indexes of a relation as
it registers it; the kernels build the one they walked and leave the
other to its first reader, so the timed kernel call then reads both
directions of every query-edge relation. Without that the speedups
would be of generation alone and not comparable with the recordings
made while generation still inverted everything it walked.

The race is run on the ``hashdict`` layout, whatever ``REPRO_BACKEND``
says. A second leg runs the same kernel call over the same graph on the
``columnar`` layout — the one ``repro serve`` opens — after asserting
equal ``GenerationStats`` (so equal walks) and an equal answer graph,
and records ``columnar_over_hashdict``, its time as a multiple of the
hashdict kernel's: what the serving layout's 84% smaller indexes cost
phase 1, interpreter against interpreter on one machine.

``python benchmarks/bench_kernels.py [--smoke] [--output F] [--baseline F]``
gates every workload at a >= 2x speedup and at most a 20% drop below
the committed ``BENCH_kernels.json``, and its columnar multiple at
:data:`COLUMNAR_CEILING`. The gate compares *ratios* (kernel vs
same-machine reference, columnar vs same-machine hashdict), not raw
walks/second, so it holds across runner hardware. ``--calibrate K``
keeps the lowest of K measurements per workload; use it when recording
the baseline.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import gate
from repro.core.engine import WireframeEngine
from repro.core.generation import generate_answer_graph
from repro.core.reference import generate_answer_graph_reference
from repro.graph.store import TripleStore
from repro.query.templates import chain_template, diamond_template, snowflake_template
from repro.utils.deadline import Deadline

#: Minimum kernel-vs-reference speedup the gated workloads must hold.
SPEEDUP_FLOOR = 2.0

#: Allowed relative drop of a workload's speedup vs the committed
#: baseline before the CI gate fails (20%).
REGRESSION_TOLERANCE = 0.20

#: Most the columnar kernel may take, as a multiple of the hashdict
#: kernel on the same workload. The full-mode recording in
#: ``BENCH_kernels.json`` reads 1.57 (chain), 1.45 (snowflake), 1.21
#: and 1.15 (diamond, diamond_eb: chords, which no layout touches,
#: dominate) with the vectorized ``gather``; one bisect and one merge
#: per bucket read 2.20, 1.93, 1.35 and 1.24 on the same box. The
#: ceiling is the highest recording plus 20%, below both of the old
#: readings that a return to per-bucket work would bring back.
COLUMNAR_CEILING = 1.9


#: The snowflake workload's layers (label, source layer, target layer) —
#: shared with bench_snapshot_open so both gates measure one graph family.
SNOWFLAKE_LAYERS = (
    ("A", "x", "m"), ("B", "x", "y"), ("C", "x", "z"),
    ("D", "m", "a"), ("E", "m", "b"), ("F", "y", "c"),
    ("G", "y", "d"), ("H", "z", "e"), ("I", "z", "f"),
)


def _layered_store(
    layers: tuple, n: int, degree: int, seed: int, backend: str | None = None
) -> TripleStore:
    """A layered digraph: every node of a predicate's source layer gets
    ``degree`` random successors in its target layer."""
    rng = random.Random(seed)
    store = TripleStore(backend=backend)
    for label, src_layer, dst_layer in layers:
        store.add_term_triples(
            (f"{src_layer}{i}", label, f"{dst_layer}{j}")
            for i in range(n)
            for j in rng.sample(range(n), degree)
        )
    store.freeze()
    return store


@dataclass(frozen=True)
class KernelWorkload:
    name: str
    edge_burnback: bool
    n: int
    degree: int
    build: object  # (backend) -> (TripleStore, ConjunctiveQuery)


def _chain(backend: str):
    store = _layered_store(
        (("A", "u", "v"), ("B", "v", "w"), ("C", "w", "x")), 600, 12, 1, backend
    )
    return store, chain_template(3).instantiate(["A", "B", "C"], name="chain")


def _diamond(backend: str):
    store = _layered_store(
        (("A", "x", "e"), ("B", "x", "z"), ("C", "y", "e"), ("D", "y", "z")),
        320,
        20,
        2,
        backend,
    )
    return store, diamond_template().instantiate(list("ABCD"), name="diamond")


def _snowflake(backend: str):
    store = _layered_store(SNOWFLAKE_LAYERS, 320, 16, 3, backend)
    return store, snowflake_template().instantiate(
        list("ABCDEFGHI"), name="snowflake"
    )


WORKLOADS = {
    "chain": KernelWorkload("chain", False, 600, 12, _chain),
    "diamond": KernelWorkload("diamond", False, 320, 20, _diamond),
    "snowflake": KernelWorkload("snowflake", False, 320, 16, _snowflake),
    # Edge burnback: the versioned fixpoint skips re-pruning settled
    # triangles and the union-form pass replaces per-object probes, so
    # this variant now holds the same 2x floor as the default three.
    "diamond_eb": KernelWorkload("diamond_eb", True, 320, 20, _diamond),
}


@lru_cache(maxsize=None)
def _prepared(name: str, backend: str = "hashdict"):
    """(bound, plan, chordification) for a workload, built once per
    layout. The same triples in the same order: ids, catalog and plan
    are the layout's only in name."""
    workload = WORKLOADS[name]
    store, query = workload.build(backend)
    engine = WireframeEngine(store, edge_burnback=workload.edge_burnback)
    return engine.plan(query)


def _run_kernel(name: str, backend: str = "hashdict"):
    workload = WORKLOADS[name]
    bound, plan, chordification = _prepared(name, backend)
    deadline = Deadline(300)
    ag, stats = generate_answer_graph(
        bound,
        plan,
        chordification=chordification,
        deadline=deadline,
        edge_burnback_enabled=workload.edge_burnback,
    )
    for rel in ag.materialized_order:  # the query edges: chords are dropped
        ag.forward(rel, deadline)
        ag.backward(rel, deadline)
    return ag, stats


def _run_reference(name: str):
    workload = WORKLOADS[name]
    bound, plan, chordification = _prepared(name)
    return generate_answer_graph_reference(
        bound,
        plan,
        chordification=chordification,
        deadline=Deadline(300),
        edge_burnback_enabled=workload.edge_burnback,
    )


def _check_equivalence(name: str) -> None:
    ag_k, stats_k = _run_kernel(name)
    ag_r, stats_r = _run_reference(name)
    assert stats_k == stats_r, f"{name}: kernel stats diverge from reference"
    assert ag_k.snapshot() == ag_r.snapshot(), f"{name}: kernel AG diverges"
    ag_c, stats_c = _run_kernel(name, "columnar")
    assert stats_c == stats_k, f"{name}: columnar stats diverge from hashdict"
    assert ag_c.snapshot() == ag_k.snapshot(), f"{name}: columnar AG diverges"


def _best_of(fn, rounds: int) -> float:
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def measure_workload(name: str, rounds: int) -> dict:
    """Race kernel vs reference; returns the workload's result record."""
    workload = WORKLOADS[name]
    _check_equivalence(name)  # also warms indexes and caches
    kernel_s = _best_of(lambda: _run_kernel(name), rounds)
    reference_s = _best_of(lambda: _run_reference(name), rounds)
    columnar_s = _best_of(lambda: _run_kernel(name, "columnar"), rounds)
    _, stats = _run_kernel(name)
    return {
        "edge_burnback": workload.edge_burnback,
        "n": workload.n,
        "degree": workload.degree,
        "edge_walks": stats.edge_walks,
        "kernel_seconds": kernel_s,
        "reference_seconds": reference_s,
        "speedup": reference_s / kernel_s,
        "kernel_walks_per_second": stats.edge_walks / kernel_s,
        "columnar_kernel_seconds": columnar_s,
        "columnar_over_hashdict": columnar_s / kernel_s,
    }


def measure(smoke: bool, calibrate: int = 1) -> dict:
    # Even --smoke keeps enough rounds for a stable min-of-N: ratio
    # noise, not wall time, is what flakes the gate.
    rounds = 5 if smoke else 9
    workloads = {}
    for name in sorted(WORKLOADS):
        record = min(
            (measure_workload(name, rounds) for _ in range(calibrate)),
            key=lambda r: r["speedup"],
        )
        workloads[name] = record
        print(
            f"{name:12s} kernel {record['kernel_seconds'] * 1e3:7.2f} ms   "
            f"reference {record['reference_seconds'] * 1e3:7.2f} ms   "
            f"x{record['speedup']:.2f}   "
            f"columnar {record['columnar_kernel_seconds'] * 1e3:7.2f} ms   "
            f"{record['columnar_over_hashdict']:.2f}x hashdict"
        )
    # 4: + the columnar leg (columnar_kernel_seconds, columnar_over_hashdict)
    return {"schema": 4, "rounds": rounds, "workloads": workloads}


GATES = [
    gate.Gate(
        f"workloads.{name}.speedup",
        floor=SPEEDUP_FLOOR,
        tolerance=REGRESSION_TOLERANCE,
    )
    for name in sorted(WORKLOADS)
] + [
    gate.Gate(f"workloads.{name}.columnar_over_hashdict", ceiling=COLUMNAR_CEILING)
    for name in sorted(WORKLOADS)
]


def main(argv: list[str] | None = None) -> int:
    parser = gate.parser(__doc__)
    parser.add_argument("--calibrate", type=int, default=1, metavar="K",
                        help="measure each workload K times and keep the most "
                             "conservative (lowest-speedup) record; use when "
                             "recording the committed baseline")
    args = parser.parse_args(argv)
    return gate.run(
        "bench_kernels", lambda smoke: measure(smoke, args.calibrate), GATES, args
    )


if __name__ == "__main__":
    raise SystemExit(main())
