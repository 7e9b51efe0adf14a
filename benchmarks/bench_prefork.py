"""Prefork scaling: worker processes vs. threads over one shared snapshot.

The prefork tentpole's acceptance scenario. One mmap snapshot of the
benchmark graph is served three ways — a pool of 1, 2, and 4 worker
processes (``workers=1`` *is* the single-process threaded baseline:
same four-thread service, same wire, same dispatcher) — under a
CPU-bound snowflake workload with the result cache and coalescing
disabled, so every request pays full evaluation. Python threads share
one GIL; worker processes don't. On a multi-core machine the pool must
therefore scale where threads cannot:

1. **Scaling gate** — 4 workers reach >=
   :data:`SCALING_FLOOR` x the warm throughput of the single-process
   baseline. Enforced only when the machine has >=
   :data:`MIN_CORES_FOR_GATE` cores (a 1-core container cannot
   demonstrate parallel speedup; the run records ``cpus`` and the gate
   is skipped with a notice).
2. **Shared-RSS gate** — the snapshot's pages are *shared*, not
   copied: across the 4-worker pool, the summed proportional set size
   (Pss) of the snapshot mappings stays under
   :data:`SHARED_PSS_CEILING` x the largest single worker's resident
   snapshot bytes. Unshared copies would sum to ~4x. Measured from
   ``/proc/<pid>/smaps`` after the timed pass (only faulted pages
   count), and only on the mmap-capable columnar backend.

``python benchmarks/bench_prefork.py [--smoke] [--output F] [--baseline F]``
also fails on a >25% drop of the scaling ratio vs the committed
``BENCH_prefork.json`` (compared only between runs of the same core
count, mode, backend and load). A gate this machine cannot demonstrate
is recorded ``"verified": false`` with the reason, and a later run
prints ``UNVERIFIED`` for it instead of comparing against it.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.bench import gate
from repro.datasets.paper_queries import paper_snowflake_queries
from repro.server.prefork import PreforkServer
from repro.storage import save_snapshot

from bench_http_throughput import _encode, run_pass

#: Minimum 4-worker / single-process warm-throughput ratio, enforced
#: only on machines with enough cores to show parallelism.
SCALING_FLOOR = 2.0

#: Cores needed before the scaling gate is enforced (CI runners have
#: 4; a 1-core container records the curve but cannot gate on it).
MIN_CORES_FOR_GATE = 4

#: Max summed worker Pss over the largest single-worker Rss for the
#: snapshot mappings of the 4-worker pool. Shared pages sum to ~1x
#: (each physical page counted once across the pool); private copies
#: would sum to ~4x.
SHARED_PSS_CEILING = 2.0

#: Resident snapshot bytes below which the sharing gate is skipped —
#: too few faulted pages to measure sharing meaningfully.
SHARING_MIN_RESIDENT = 512 << 10

#: Allowed relative drop of the scaling ratio vs the committed
#: baseline (compared only between same-core-count machines).
REGRESSION_TOLERANCE = 0.25

#: Closed-loop keep-alive clients and per-worker service threads.
CLIENTS = 16
THREADS = 4

#: Worker counts measured, in order. ``1`` is the baseline.
WORKER_COUNTS = (1, 2, 4)

#: Every request must evaluate: no result cache, no coalescing.
CPU_BOUND_OPTIONS = {"result_cache_size": 0, "coalesce": False}


def build_bodies(requests: int) -> list[bytes]:
    """``requests`` CPU-bound snowflake requests (count-only)."""
    queries = list(paper_snowflake_queries())
    return [_encode(queries[i % len(queries)]) for i in range(requests)]


def _snapshot_residency(pid: int, payload_prefix: str) -> dict:
    """Resident (Rss) and proportional (Pss) bytes of ``pid``'s
    mappings under the snapshot payload directory."""
    rss = pss = 0
    current = False
    try:
        with open(f"/proc/{pid}/smaps", encoding="ascii",
                  errors="replace") as handle:
            for line in handle:
                if "-" in line.split(" ", 1)[0] and ":" not in line.split(
                    " ", 1
                )[0]:
                    current = line.rstrip("\n").endswith(
                        payload_prefix
                    ) or payload_prefix + os.sep in line
                elif current and line.startswith("Rss:"):
                    rss += int(line.split()[1]) * 1024
                elif current and line.startswith("Pss:"):
                    pss += int(line.split()[1]) * 1024
    except OSError:
        return {"rss_bytes": None, "pss_bytes": None}
    return {"rss_bytes": rss, "pss_bytes": pss}


def run_prefork_benchmark(
    snapshot, bodies: list[bytes], clients: int = CLIENTS,
) -> dict:
    """The scaling curve: one timed closed-loop pass per worker count.

    Each pool serves the identical workload after a quarter-length
    warmup pass (plan caches fill; the result cache is off). Snapshot
    residency is sampled per worker *after* the timed pass, when the
    workload has faulted in every page it will ever touch.
    """
    payload = os.path.realpath(os.fspath(snapshot))
    results: dict = {
        "requests": len(bodies),
        "clients": clients,
        "threads_per_worker": THREADS,
        "configs": {},
    }
    for workers in WORKER_COUNTS:
        with PreforkServer(
            snapshot,
            workers=workers,
            threads=THREADS,
            auto_reload=False,
            service_options=dict(CPU_BOUND_OPTIONS),
        ) as pool:
            run_pass(pool.address, bodies[: max(1, len(bodies) // 4)],
                     clients)
            timed = run_pass(pool.address, bodies, clients)
            stats = pool.pool_stats()
            residency = [
                {
                    "pid": entry["pid"],
                    **_snapshot_residency(entry["pid"], payload),
                }
                for entry in stats["workers"]
            ]
        results["configs"][f"workers-{workers}"] = {
            "workers": workers,
            "qps": timed["qps"],
            "p50_seconds": timed["p50_seconds"],
            "p99_seconds": timed["p99_seconds"],
            "errors": timed["errors"],
            "first_error": timed["first_error"],
            "restarts": stats["pool"]["restarts"],
            "snapshot_residency": residency,
        }
        print(
            f"workers={workers}  {timed['qps']:8.1f} req/s   "
            f"p50 {timed['p50_seconds'] * 1e3:7.2f} ms   "
            f"p99 {timed['p99_seconds'] * 1e3:7.2f} ms   "
            f"errors {timed['errors']} (first: {timed['first_error']})"
        )

    base = results["configs"]["workers-1"]["qps"]
    results["scaling"] = {
        f"workers-{n}": results["configs"][f"workers-{n}"]["qps"] / base
        for n in WORKER_COUNTS
    }
    results["scaling_ratio"] = results["scaling"]["workers-4"]

    pool4 = results["configs"]["workers-4"]["snapshot_residency"]
    rss = [r["rss_bytes"] for r in pool4 if r["rss_bytes"] is not None]
    pss = [r["pss_bytes"] for r in pool4 if r["pss_bytes"] is not None]
    results["sharing"] = {
        "max_worker_rss_bytes": max(rss) if rss else None,
        "summed_pss_bytes": sum(pss) if pss else None,
        "pss_over_rss": (
            sum(pss) / max(rss) if rss and pss and max(rss) else None
        ),
    }
    configs = results["configs"].values()
    results["errors"] = sum(config["errors"] for config in configs)
    results["restarts"] = sum(config["restarts"] for config in configs)
    return results


def _prepare_snapshot(workdir: str):
    """Benchmark store + catalog saved as a mmap-able snapshot."""
    from repro.bench.workloads import benchmark_catalog, make_benchmark_store

    store = make_benchmark_store()
    catalog = benchmark_catalog()
    path = os.path.join(workdir, "bench-snap")
    save_snapshot(store, path, catalog=catalog, generation=1)
    return path, store.backend_name


def measure(smoke: bool) -> dict:
    if smoke:
        os.environ.setdefault("REPRO_BENCH_SCALE", "0.25")
    with tempfile.TemporaryDirectory(prefix="bench-prefork-") as workdir:
        snapshot, backend = _prepare_snapshot(workdir)
        results = run_prefork_benchmark(snapshot, build_bodies(160 if smoke else 400))
    results["backend"] = backend
    skip = {}
    if (os.cpu_count() or 1) < MIN_CORES_FOR_GATE:
        skip["scaling_ratio"] = (
            f"{os.cpu_count()} core(s) < {MIN_CORES_FOR_GATE}: "
            f"curve recorded, not enforced"
        )
    resident = results["sharing"]["max_worker_rss_bytes"]
    if backend != "columnar":
        skip["sharing.pss_over_rss"] = f"backend {backend!r} does not mmap snapshots"
    elif resident is None or resident < SHARING_MIN_RESIDENT:
        skip["sharing.pss_over_rss"] = (
            f"too few resident snapshot bytes ({resident}) to measure sharing"
        )
    results["skip"] = skip
    return results


GATES = [
    gate.Gate("errors", ceiling=0),
    gate.Gate("restarts", ceiling=0),
    gate.Gate(
        "scaling_ratio",
        floor=SCALING_FLOOR,
        tolerance=REGRESSION_TOLERANCE,
        like_for_like=("cpus", "mode", "backend", "requests", "clients"),
    ),
    gate.Gate("sharing.pss_over_rss", ceiling=SHARED_PSS_CEILING),
]

if __name__ == "__main__":
    raise SystemExit(
        gate.run("bench_prefork", measure, GATES, gate.parser(__doc__).parse_args())
    )
