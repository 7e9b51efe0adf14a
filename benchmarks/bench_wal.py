"""Per-batch durability: WAL append vs. whole-store snapshot — the gate.

Before the write-ahead log, making an acknowledged batch durable meant
``save_snapshot`` — rewriting every segment, cost proportional to the
whole store. With the WAL (:mod:`repro.storage.wal`) the same guarantee
is one appended, fsync'd record — cost proportional to the *batch*.
This benchmark quantifies that on a populated store, per backend:

* **wal append** — ``add_term_triples`` through the journaled facade
  under the default ``fsync="batch"`` policy (encode + write + fsync
  per batch, the full durability cost of one acknowledged write);
* **full save** — ``save_snapshot`` of the same store, the per-batch
  durability cost of the pre-WAL write path.

After the batches a reopen (snapshot + WAL replay) must recover the
exact live fingerprint, or the run raises. The gate: WAL append at
least :data:`WAL_SPEEDUP_FLOOR` (5x) cheaper per batch than a full save
on the slower backend, and at most a :data:`REGRESSION_TOLERANCE` (25%)
drop vs. the committed ``BENCH_wal.json`` at the same store size.

Group commit (contended appenders pay < 0.9 fsyncs per acknowledged
append) is a count, not a timing, and is asserted in tier-1:
``tests/storage/test_group_commit.py``.

``python benchmarks/bench_wal.py [--smoke] [--output F] [--baseline F]``
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import gate
from repro.graph.backends import available_backends
from repro.storage import (
    close_store,
    open_store,
    save_snapshot,
    store_fingerprint,
)

#: Minimum full-save / WAL-append per-batch cost ratio the gate enforces.
WAL_SPEEDUP_FLOOR = 5.0

#: Allowed relative drop of the WAL speedup vs the committed baseline
#: (hardware-independent: both sides are measured on the same machine).
REGRESSION_TOLERANCE = 0.25

REPEATS = 5


def _base_triples(n: int):
    # A star-ish labeled digraph: enough distinct terms that the
    # snapshot's dictionary and segments carry realistic weight.
    return [
        (f"node-{i}", f"rel-{i % 17}", f"node-{(i * 7 + 1) % n}")
        for i in range(n)
    ]


def _batch(i: int, size: int):
    # Every batch interns fresh terms (journaled alongside the triples)
    # and removes one earlier edge — the interleaved write mix the
    # recovery property suite exercises.
    return [
        (f"new-{i}-{j}", f"rel-{j % 17}", f"node-{j}") for j in range(size)
    ]


def _median(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


def run_wal_benchmark(
    workdir: str, base: int, batch_size: int, batches: int,
    repeats: int = REPEATS,
) -> dict:
    """Per-batch append vs. save timings + recovery parity, per backend."""
    results: dict = {
        "base_triples": base,
        "batch_size": batch_size,
        "batches": batches,
        "repeats": repeats,
        "backends": {},
    }
    seed_triples = _base_triples(base)
    for backend in available_backends():
        snap = os.path.join(workdir, f"snap-{backend}")
        store = open_store(snap, backend=backend)
        store.add_term_triples(seed_triples)

        # Full-save cost: what durability per batch cost pre-WAL.
        save_samples = []
        for r in range(repeats):
            target = os.path.join(workdir, f"full-{backend}-{r}")
            start = time.perf_counter()
            save_snapshot(store, target)
            save_samples.append(time.perf_counter() - start)

        # WAL-append cost: one journaled batch, fsync included.
        append_samples = []
        for i in range(batches):
            adds = _batch(i, batch_size)
            start = time.perf_counter()
            store.add_term_triples(adds)
            append_samples.append(time.perf_counter() - start)
            store.remove_term_triple(
                f"node-{i}", f"rel-{i % 17}", f"node-{(i * 7 + 1) % base}"
            )

        live = store_fingerprint(store)
        close_store(store)
        recovered = open_store(snap, backend=backend)
        recovered_fingerprint = store_fingerprint(recovered)
        close_store(recovered)
        if recovered_fingerprint != live:
            raise AssertionError(
                f"recovery differs from the live store under {backend!r}"
            )

        save_seconds = min(save_samples)
        append_seconds = _median(append_samples)
        results["backends"][backend] = {
            "full_save_seconds": save_seconds,
            "wal_append_seconds_per_batch": append_seconds,
            "wal_speedup": save_seconds / append_seconds,
        }
        print(
            f"{backend:9s}  full save {save_seconds * 1e3:8.1f} ms"
            f"   wal append {append_seconds * 1e3:7.2f} ms"
            f"   ({save_seconds / append_seconds:6.1f}x)"
        )

    results["wal_speedup"] = min(
        entry["wal_speedup"] for entry in results["backends"].values()
    )
    return results


def measure(smoke: bool) -> dict:
    base, batches = (4_000, 16) if smoke else (20_000, 32)
    with tempfile.TemporaryDirectory(prefix="bench-wal-") as workdir:
        return run_wal_benchmark(workdir, base, 16, batches)


GATES = [
    gate.Gate(
        "wal_speedup",
        floor=WAL_SPEEDUP_FLOOR,
        tolerance=REGRESSION_TOLERANCE,
        like_for_like=("base_triples",),
    ),
]

if __name__ == "__main__":
    raise SystemExit(
        gate.run("bench_wal", measure, GATES, gate.parser(__doc__).parse_args())
    )
