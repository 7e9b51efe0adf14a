"""Snapshot-open latency: cold ingest vs eager open vs lazy mmap open.

One script for everything that times :func:`repro.storage.load_snapshot`
over the layered snowflake digraph of ``bench_kernels``. Two scenarios:

* **ingest** — the kernel gate's snowflake store. *cold* is
  ``load_ntriples_file`` + ``freeze()`` (parse, intern, dedup, sort);
  *warm eager* is ``load_snapshot(use_mmap=False)`` per backend; *warm
  mmap* is the zero-copy columnar open. Gate: mmap open at least
  :data:`WARM_START_FLOOR` (5x) faster than cold ingest.
* **vocabulary** — the same digraph at degree 2, so the term count
  dominates, at two sizes a decade apart. *eager* parses the whole
  dictionary (``lazy_terms=False``); *lazy* maps it. Both run with
  ``verify=False`` so the comparison isolates dictionary
  materialization (the sha256 pass is the same on both sides). Gates,
  at the large size: lazy at least :data:`LAZY_FLOOR` (5x) faster than
  eager; the lazy open at most :data:`FLATNESS_CEILING` (3x) slower
  across the term decade, i.e. O(1) in term count; and no more than a
  :data:`REGRESSION_TOLERANCE` drop of the lazy speedup vs the committed
  ``BENCH_snapshot_open.json``, compared only at equal term counts.

That a snapshot round-trips losslessly into every backend and that lazy
and eager dictionaries answer identically is tier-1's to assert
(``tests/storage/test_snapshot.py``, ``test_snapshot_v2.py``); this
script only times.

``python benchmarks/bench_snapshot_open.py [--smoke] [--output F] [--baseline F]``
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
# benchmarks/ is not a package; the layered-store builder lives in
# bench_kernels so every gate measures the same graph family.
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_kernels import SNOWFLAKE_LAYERS, _best_of, _layered_store

from repro.bench import gate
from repro.graph.backends import available_backends
from repro.graph.ntriples import load_ntriples_file
from repro.storage import load_snapshot, save_snapshot

WARM_START_FLOOR = 5.0
LAZY_FLOOR = 5.0

#: With room for ms-scale timer noise: the eager open grows ~10x here.
FLATNESS_CEILING = 3.0

#: Wider than the kernel gate's 20%: the lazy open is ~0.3 ms, so the
#: ratio carries more scheduler noise.
REGRESSION_TOLERANCE = 0.25

REPEATS = 5

#: Layer size per vocabulary target: terms ~= 10 namespaces * n + 9
#: predicates. Full mode spans 10^4 -> 10^5 terms; smoke keeps the
#: decade but shrinks both ends.
SIZES = {"small": 1_000, "large": 10_000}
SMOKE_SIZES = {"small": 250, "large": 2_500}


def measure_ingest(workdir: str, n: int, degree: int) -> dict:
    store = _layered_store(SNOWFLAKE_LAYERS, n, degree, seed=3, backend="columnar")
    nt_path = os.path.join(workdir, "snowflake.nt")
    snap_path = os.path.join(workdir, "snowflake.snap")
    # The layered store's terms are bare labels; the cold corpus wraps
    # them as IRIs so the file is well-formed N-Triples and the cold
    # path pays realistic surface-string parsing.
    decode = store.dictionary.decode
    with open(nt_path, "w", encoding="utf-8") as handle:
        for t in store.triples():
            handle.write(f"<{decode(t.s)}> <{decode(t.p)}> <{decode(t.o)}> .\n")
    save_snapshot(store, snap_path)

    cold = _best_of(
        lambda: load_ntriples_file(nt_path, backend="columnar").freeze(), REPEATS
    )
    eager = {
        backend: _best_of(
            lambda b=backend: load_snapshot(snap_path, backend=b, use_mmap=False),
            REPEATS,
        )
        for backend in available_backends()
    }
    mmap = _best_of(
        lambda: load_snapshot(snap_path, backend="columnar", use_mmap=True), REPEATS
    )
    print(f"ingest  {store.num_triples} triples: cold {cold * 1e3:.1f} ms, "
          f"mmap open {mmap * 1e3:.2f} ms")
    return {
        "n": n,
        "degree": degree,
        "triples": store.num_triples,
        "cold_ingest_seconds": cold,
        "warm_eager_seconds": eager,
        "warm_mmap_seconds": mmap,
    }


def measure_vocabulary(workdir: str, label: str, n: int) -> dict:
    store = _layered_store(SNOWFLAKE_LAYERS, n, 2, seed=7, backend="columnar")
    snap_path = os.path.join(workdir, f"vocab-{label}.snap")
    save_snapshot(store, snap_path)
    eager, lazy = (
        _best_of(
            lambda: load_snapshot(
                snap_path, backend="columnar", lazy_terms=lazy_terms, verify=False
            ),
            REPEATS,
        )
        for lazy_terms in (False, True)
    )
    print(f"{label:6s}  {len(store.dictionary):>6} terms: eager open "
          f"{eager * 1e3:.2f} ms, lazy open {lazy * 1e3:.2f} ms")
    return {
        "n": n,
        "terms": len(store.dictionary),
        "triples": store.num_triples,
        "eager_open_seconds": eager,
        "lazy_open_seconds": lazy,
    }


def measure(smoke: bool) -> dict:
    n, degree = (128, 8) if smoke else (320, 16)
    with tempfile.TemporaryDirectory(prefix="bench-snapshot-open-") as workdir:
        ingest = measure_ingest(workdir, n, degree)
        sizes = {
            label: measure_vocabulary(workdir, label, size)
            for label, size in (SMOKE_SIZES if smoke else SIZES).items()
        }
    small, large = sizes["small"], sizes["large"]
    return {
        "repeats": REPEATS,
        "ingest": ingest,
        "sizes": sizes,
        "warm_speedup": ingest["cold_ingest_seconds"] / ingest["warm_mmap_seconds"],
        "lazy_speedup": large["eager_open_seconds"] / large["lazy_open_seconds"],
        "flatness": large["lazy_open_seconds"] / small["lazy_open_seconds"],
    }


GATES = [
    gate.Gate("warm_speedup", floor=WARM_START_FLOOR),
    gate.Gate(
        "lazy_speedup",
        floor=LAZY_FLOOR,
        tolerance=REGRESSION_TOLERANCE,
        like_for_like=("sizes.large.terms",),
    ),
    gate.Gate("flatness", ceiling=FLATNESS_CEILING),
]

if __name__ == "__main__":
    args = gate.parser(__doc__).parse_args()
    raise SystemExit(gate.run("bench_snapshot_open", measure, GATES, args))
