"""HTTP serving throughput: the /v1 front end under closed-loop load.

The serving tentpole's acceptance scenario: several keep-alive clients
drive the mixed chain/diamond/snowflake workload (the same one
``bench_service_throughput`` batches in-process) through a real
``POST /v1/query`` socket, one request outstanding per client. Two
passes over a fresh :class:`~repro.service.QueryService`:

* **cold** — empty plan/result caches, every query plans and runs;
* **warm** — the identical workload again, so literal repeats short-
  circuit in the result cache and templates reuse cached plans.

Before any timing, the harness asserts **parity**: every distinct
query's HTTP-reported count equals the in-process
``QueryService.evaluate`` count. The HTTP layer must be a transport,
not a different engine.

The gates (``python benchmarks/bench_http_throughput.py [--smoke]
[--output F] [--baseline F]``, on the shared ``repro.bench.gate`` runner):

1. no non-200 response in either pass,
2. warm per-request p99 <= :data:`P99_CEILING` seconds,
3. the warm pass is >= :data:`WARM_SPEEDUP_FLOOR` x the cold pass —
   the cache hierarchy must survive the wire,
4. the observability layer (tracing + /metrics) costs <=
   :data:`OVERHEAD_CEILING` of warm per-request serving time — its
   per-dispatch cost vs an ``observability=False`` server (interleaved
   request-level A/B), stated against the warm socket RTT — with a
   live server's ``/metrics`` body strict-parsed mid-load, and
5. warm QPS no more than :data:`REGRESSION_TOLERANCE` below the
   committed ``BENCH_http_throughput.json``, compared only between runs
   of the same mode, backend and load.

The absolute warm-throughput floor lives where the hit path is measured
against an oracle: CI's ``http_hot`` step asserts ``ops_per_s`` on the
``benchmarks/e2e`` result line.

``--soak [--soak-seconds N]`` switches to the **soak mode** (the
nightly, non-gating CI job): sustained closed-loop load for ``N``
seconds, reported as per-window throughput/latency percentiles plus
server RSS samples, so drift (leaks, cache bloat, latency creep)
shows up as a trend across windows rather than a single average. Soak
exits non-zero only on request errors — RSS growth and latency are
reported, not gated.

``--chaos [--chaos-seed N] [--chaos-artifacts DIR]`` switches to the
**chaos mode** (the CI ``chaos`` job): the seeded fault scenarios from
``tests/server/chaos.py`` — worker SIGKILL, worker SIGSTOP, a corrupt
snapshot install, and a full WAL disk — each under closed-loop load
from the retrying :class:`repro.client.ReproClient`. The gate: zero
wrong answers, end-to-end error rate < 2%, and recovery within ten
seconds of the last fault. Artifacts (per-scenario event journals and
final ``/metrics`` snapshots) land in ``--chaos-artifacts``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import socket
import statistics
import sys
import threading
import time
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.bench import gate
from repro.datasets.paper_queries import paper_diamond_queries, paper_snowflake_queries
from repro.query.miner import QueryMiner
from repro.query.templates import chain_template
from repro.server import serve_in_background
from repro.service import QueryService

#: Maximum warm-pass per-request p99, in seconds. Warm requests are
#: cache hits plus JSON + socket overhead — tens of milliseconds even
#: on a loaded runner.
P99_CEILING = 0.25

#: Minimum warm/cold throughput ratio: the service's cache hierarchy
#: (plan cache, result cache) must still pay off through the wire.
WARM_SPEEDUP_FLOOR = 1.3

#: Allowed relative drop of warm QPS vs the committed baseline.
REGRESSION_TOLERANCE = 0.25

#: Allowed relative per-request cost of the observability layer
#: (request tracing + metrics) vs an ``observability=False`` server,
#: measured over real sockets on the warm serving path. Warm requests
#: are the worst case: a result-cache hit round-trips in a couple
#: hundred microseconds, so fixed per-request instrumentation shows up
#: here first.
OVERHEAD_CEILING = 0.05

#: Request-level interleaved timing passes when measuring that
#: overhead (best time per request per mode is compared). Even, so
#: the alternating on-first/off-first ordering is balanced.
OVERHEAD_PASSES = 6

#: Total closed-loop requests per pass and concurrent keep-alive clients.
WORKLOAD_SIZE = 100
CLIENTS = 4


def build_workload(store):
    """~100 mixed queries: distinct templates, anchored variants, literal
    repeats — the same traffic shape as ``bench_service_throughput``."""
    from bench_service_throughput import anchored_variants

    miner = QueryMiner(store, seed=11, forbidden_labels=["rdf:type"])
    chains = miner.mine(chain_template(3), count=4)
    distinct = (
        chains
        + list(paper_diamond_queries())[:3]
        + list(paper_snowflake_queries())[:3]
    )
    anchored = [
        variant
        for chain in chains
        for variant in anchored_variants(store, chain, 5)
    ]
    queries = list(distinct) + anchored
    while len(queries) < WORKLOAD_SIZE:
        queries += distinct
    queries = queries[:WORKLOAD_SIZE]
    queries.sort(key=lambda q: sum(map(ord, q.name or "q")) % 97)
    return distinct, queries


def _encode(query) -> bytes:
    """The request body: canonical wire form, count-only evaluation."""
    return json.dumps({"query": query.to_dict(), "materialize": False}).encode()


def run_pass(address, bodies: list[bytes], clients: int) -> dict:
    """One closed-loop pass: ``clients`` threads, one request in flight
    each, keep-alive connections, until the workload is drained."""
    shares = [bodies[i::clients] for i in range(clients)]
    latencies: list[list[float]] = [[] for _ in range(clients)]
    failures: list[str] = []
    host, port = address

    def worker(idx: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            for body in shares[idx]:
                t0 = time.perf_counter()
                conn.request("POST", "/v1/query", body=body)
                response = conn.getresponse()
                raw = response.read()
                latencies[idx].append(time.perf_counter() - t0)
                if response.status != 200:
                    failures.append(raw.decode(errors="replace")[:200])
        finally:
            conn.close()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(clients)
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0

    flat = sorted(lat for share in latencies for lat in share)
    return {
        "requests": len(flat),
        "wall_seconds": wall,
        "qps": len(flat) / wall,
        "p50_seconds": statistics.quantiles(flat, n=100)[49],
        "p99_seconds": statistics.quantiles(flat, n=100)[98],
        "errors": len(failures),
        "first_error": failures[0] if failures else None,
    }


def _rss_bytes() -> "int | None":
    """Resident set size of this process (server + service live here)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def run_soak(
    store, catalog, seconds: float, clients: int = CLIENTS,
    window_seconds: float = 5.0,
) -> dict:
    """Sustained closed-loop load, reported per time window.

    ``clients`` keep-alive threads cycle the workload for ``seconds``
    after one warmup pass. Latencies are bucketed into
    ``window_seconds`` windows — each with qps/p50/p99 and an RSS
    sample — so the nightly job surfaces *trends*: RSS that climbs
    window over window, or p99 that creeps as caches fill.
    """
    from repro.obs.exposition import parse_exposition, render_registries
    from repro.obs.metrics import MetricsRegistry

    _distinct, workload = build_workload(store)
    bodies = [_encode(q) for q in workload]
    stop = threading.Event()
    samples: list[list[tuple[float, float]]] = [[] for _ in range(clients)]
    failures: list[str] = []
    rss_track: list[tuple[float, int]] = []

    # The soak's own measurements flow through the same metrics
    # machinery the server exports — the nightly artifact is one
    # exposition document covering both sides of the socket.
    registry = MetricsRegistry()
    request_seconds = registry.histogram(
        "repro_soak_request_seconds",
        "Client-observed request latency during the soak.",
    )
    errors_total = registry.counter(
        "repro_soak_errors_total", "Non-200 responses during the soak."
    )
    rss_gauge = registry.gauge(
        "repro_soak_rss_bytes", "Server-process RSS, sampled per second."
    )
    window_gauges = {
        name: registry.gauge(
            f"repro_soak_window_{name}",
            f"Final soak window {name} (trend endpoint).",
        )
        for name in ("qps", "p50_seconds", "p99_seconds")
    }

    with QueryService(store, catalog=catalog) as service:
        with serve_in_background(service, max_pending=4 * clients) as handle:
            run_pass(handle.address, bodies, clients)  # warmup
            host, port = handle.address

            def worker(idx: int) -> None:
                conn = http.client.HTTPConnection(host, port, timeout=120)
                try:
                    position = idx
                    while not stop.is_set():
                        body = bodies[position % len(bodies)]
                        position += clients
                        t0 = time.perf_counter()
                        conn.request("POST", "/v1/query", body=body)
                        response = conn.getresponse()
                        raw = response.read()
                        elapsed = time.perf_counter() - t0
                        samples[idx].append((t0, elapsed))
                        request_seconds.observe(elapsed)
                        if response.status != 200:
                            errors_total.inc()
                            failures.append(
                                raw.decode(errors="replace")[:200]
                            )
                finally:
                    conn.close()

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(clients)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            deadline = start + seconds
            while time.perf_counter() < deadline:
                rss = _rss_bytes()
                if rss is not None:
                    rss_track.append((time.perf_counter() - start, rss))
                    rss_gauge.set(rss)
                time.sleep(min(window_seconds, 1.0))
            stop.set()
            for thread in threads:
                thread.join()
            http_stats = handle.server.http_stats()
            snapshot = service.snapshot()
            # Final server-side exposition, scraped over the socket like
            # a real Prometheus would, while the server is still up.
            conn = http.client.HTTPConnection(host, port, timeout=120)
            try:
                conn.request("GET", "/metrics")
                server_text = conn.getresponse().read().decode("utf-8")
            finally:
                conn.close()

    flat = sorted(
        (t0 - start, latency) for share in samples for t0, latency in share
    )
    windows = []
    index = 0
    while index < len(flat):
        floor = flat[index][0] // window_seconds * window_seconds
        bucket = []
        while index < len(flat) and flat[index][0] < floor + window_seconds:
            bucket.append(flat[index][1])
            index += 1
        bucket.sort()
        rss_in_window = [
            rss for offset, rss in rss_track
            if floor <= offset < floor + window_seconds
        ]
        span = max(0.001, min(window_seconds, seconds - floor))
        windows.append(
            {
                "start_seconds": floor,
                "requests": len(bucket),
                "qps": len(bucket) / span,
                "p50_seconds": bucket[len(bucket) // 2],
                "p99_seconds": bucket[min(len(bucket) - 1,
                                          int(len(bucket) * 0.99))],
                "rss_bytes": rss_in_window[-1] if rss_in_window else None,
            }
        )

    if windows:
        for name, gauge in window_gauges.items():
            gauge.set(windows[-1][name])
    # Soak-side names (repro_soak_*) are disjoint from the server's, so
    # the two documents concatenate into one valid exposition.
    metrics_text = server_text + render_registries(registry)
    parse_exposition(metrics_text)  # artifact must strict-parse

    tracked = [rss for _, rss in rss_track]
    return {
        "mode": "soak",
        "_metrics_text": metrics_text,
        "seconds": seconds,
        "window_seconds": window_seconds,
        "clients": clients,
        "requests": len(flat),
        "errors": len(failures),
        "first_error": failures[0] if failures else None,
        "windows": windows,
        "rss_first_bytes": tracked[0] if tracked else None,
        "rss_last_bytes": tracked[-1] if tracked else None,
        "rss_growth": (
            tracked[-1] / tracked[0] if len(tracked) >= 2 else None
        ),
        "shed": http_stats["shed"],
        "result_cache_hit_rate": snapshot["result_cache"]["hit_rate"],
    }


def run_overhead_check(store, catalog, clients: int = CLIENTS) -> dict:
    """Per-request cost of observability on the warm serving path.

    Three measurements:

    * **Scrape validity** — a socket server under the regular
      closed-loop workload has its ``GET /metrics`` body scraped and
      strict-parsed mid-load; a malformed exposition fails the gate by
      raising here.
    * **Warm request time** (the denominator) — serial warm RTT of the
      full workload against that same server over a raw keep-alive
      socket, best-of-3 per request: what one warm request costs a
      client end to end, kernel I/O and HTTP parse included.
    * **Added cost** (the numerator) — two in-process servers (the
      default observability surface vs ``observability=False``)
      dispatch the same warm workload *request-level interleaved* with
      the timed-first mode alternating each pass,
      best-of-:data:`OVERHEAD_PASSES` per request per mode; the delta
      of the per-request means is what tracing + metrics add to the
      serving path.

    The gate is ``delta / warm_rtt``. The numerator is measured
    in-process rather than over sockets because the effect is a few
    microseconds per request: a *null* socket A/B (two identical
    servers) in this one-process harness shows a ±2-5µs bias floor
    from thread wakeups and event-loop scheduling — the same order as
    the effect — while the in-process A/B's null floor is ~0.3µs. The
    denominator stays on the socket so the overhead is stated against
    what a warm request actually costs through the wire.
    """
    from repro.obs.exposition import parse_exposition

    _distinct, workload = build_workload(store)
    bodies = [_encode(q) for q in workload]

    raw_requests = [
        (
            f"POST /v1/query HTTP/1.1\r\n"
            f"content-length: {len(body)}\r\n\r\n"
        ).encode("ascii") + body
        for body in bodies
    ]

    def _roundtrip(sock, raw: bytes) -> None:
        sock.sendall(raw)
        buf = b""
        while b"\r\n\r\n" not in buf:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-response")
            buf += chunk
        head, _, body = buf.partition(b"\r\n\r\n")
        status = head.split(None, 2)[1]
        if status != b"200":
            raise AssertionError(f"status {status.decode()}: {body[:200]!r}")
        length = None
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
                break
        while len(body) < length:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-body")
            body += chunk

    # Scrape validity + the denominator: one real socket server under
    # the regular closed-loop load, then serial warm RTT over a raw
    # keep-alive connection against it.
    with QueryService(store, catalog=catalog) as service:
        with serve_in_background(
            service, max_pending=4 * clients
        ) as handle:
            run_pass(handle.address, bodies, clients)
            host, port = handle.address
            conn = http.client.HTTPConnection(host, port, timeout=120)
            try:
                conn.request("GET", "/metrics")
                text = conn.getresponse().read().decode("utf-8")
            finally:
                conn.close()
            families = len(parse_exposition(text))  # raises if malformed

            sock = socket.create_connection(handle.address, timeout=120)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                # One untimed serial pass settles the result cache into
                # the all-hits steady state the timed passes should see.
                for raw in raw_requests:
                    _roundtrip(sock, raw)
                best_rtt = [float("inf")] * len(raw_requests)
                for _ in range(3):
                    for i, raw in enumerate(raw_requests):
                        t0 = time.perf_counter()
                        _roundtrip(sock, raw)
                        elapsed = time.perf_counter() - t0
                        if elapsed < best_rtt[i]:
                            best_rtt[i] = elapsed
            finally:
                sock.close()
    warm_rtt = statistics.mean(best_rtt)

    # The numerator: in-process dispatch A/B, on vs off.
    from repro.server.app import HTTPQueryServer
    from repro.server.http import Request

    async def _dispatch_delta() -> tuple[float, float]:
        with QueryService(store, catalog=catalog) as svc_on, \
                QueryService(store, catalog=catalog) as svc_off:
            on = HTTPQueryServer(svc_on)
            off = HTTPQueryServer(svc_off, observability=False)

            def request_for(body: bytes) -> Request:
                return Request(
                    method="POST", path="/v1/query", query_string="",
                    headers={"content-length": str(len(body))}, body=body,
                )

            # Three untimed passes warm the plan and result caches.
            for _ in range(3):
                for body in bodies:
                    for server in (on, off):
                        response = await server._dispatch(request_for(body))
                        assert response.status == 200, response.body
            n = len(bodies)
            best_on = [float("inf")] * n
            best_off = [float("inf")] * n
            clock = time.perf_counter
            for passno in range(OVERHEAD_PASSES):
                # Alternate which mode is timed first each pass: the
                # first dispatch after any cold spot eats cache-refill
                # cost that would otherwise bias one mode.
                first, second = (on, off) if passno % 2 == 0 else (off, on)
                best_first = best_on if passno % 2 == 0 else best_off
                best_second = best_off if passno % 2 == 0 else best_on
                for i, body in enumerate(bodies):
                    for _ in range(3):
                        t0 = clock()
                        await first._dispatch(request_for(body))
                        t1 = clock()
                        t2 = clock()
                        await second._dispatch(request_for(body))
                        t3 = clock()
                        if t1 - t0 < best_first[i]:
                            best_first[i] = t1 - t0
                        if t3 - t2 < best_second[i]:
                            best_second[i] = t3 - t2
            return statistics.mean(best_on), statistics.mean(best_off)

    dispatch_on, dispatch_off = asyncio.run(_dispatch_delta())
    delta = max(0.0, dispatch_on - dispatch_off)
    return {
        "dispatch_on_seconds": dispatch_on,
        "dispatch_off_seconds": dispatch_off,
        "dispatch_delta_seconds": delta,
        "warm_rtt_seconds": warm_rtt,
        "overhead": delta / warm_rtt,
        "ceiling": OVERHEAD_CEILING,
        "passes": OVERHEAD_PASSES,
        "metrics_families": families,
    }


def check_parity(address, service, distinct) -> dict:
    """HTTP counts == in-process counts for every distinct query."""
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=120)
    parity = {}
    try:
        for query in distinct:
            expected = service.evaluate(query, materialize=False).count
            conn.request("POST", "/v1/query", body=_encode(query))
            response = conn.getresponse()
            payload = json.loads(response.read())
            got = payload["result"]["count"] if response.status == 200 else None
            parity[query.name or "q"] = (got == expected)
    finally:
        conn.close()
    return parity


def run_http_benchmark(store, catalog, clients: int = CLIENTS) -> dict:
    """Parity check + cold/warm closed-loop passes over a fresh service."""
    distinct, workload = build_workload(store)
    bodies = [_encode(q) for q in workload]
    with QueryService(store, catalog=catalog) as service:
        with serve_in_background(service, max_pending=4 * clients) as handle:
            cold = run_pass(handle.address, bodies, clients)
            warm = run_pass(handle.address, bodies, clients)
            parity = check_parity(handle.address, service, distinct)
            snapshot = service.snapshot()
            http_stats = handle.server.http_stats()
    mismatched = [name for name, same in parity.items() if not same]
    if mismatched:
        raise AssertionError(f"HTTP and in-process counts differ: {mismatched}")
    for label, record in (("cold", cold), ("warm", warm)):
        print(
            f"{label:4s} {record['requests']:>4} requests  "
            f"{record['qps']:8.1f} req/s   "
            f"p50 {record['p50_seconds'] * 1e3:7.2f} ms   "
            f"p99 {record['p99_seconds'] * 1e3:7.2f} ms   "
            f"errors {record['errors']} (first: {record['first_error']})"
        )
    return {
        "workload_size": len(workload),
        "clients": clients,
        "backend": store.backend_name,
        "cold": cold,
        "warm": warm,
        "warm_speedup": warm["qps"] / cold["qps"],
        "parity": parity,
        "plan_cache_hit_rate": snapshot["plan_cache"]["hit_rate"],
        "result_cache_hit_rate": snapshot["result_cache"]["hit_rate"],
        "shed": http_stats["shed"],
        "observability": run_overhead_check(store, catalog, clients),
    }


GATES = [
    gate.Gate("cold.errors", ceiling=0),
    gate.Gate("warm.errors", ceiling=0),
    gate.Gate(
        "warm.qps",
        tolerance=REGRESSION_TOLERANCE,
        like_for_like=("mode", "backend", "workload_size", "clients"),
    ),
    gate.Gate("warm.p99_seconds", ceiling=P99_CEILING),
    gate.Gate("warm_speedup", floor=WARM_SPEEDUP_FLOOR),
    gate.Gate("observability.overhead", ceiling=OVERHEAD_CEILING),
]


def run_chaos_mode(args) -> int:
    """Fault storms with exactness gates — the CI ``chaos`` job body.

    Reuses the test suite's harness (``tests/server/chaos.py``) so the
    benchmark and the tests exercise byte-identical scenarios.
    """
    import tempfile

    tests_root = Path(__file__).resolve().parent.parent / "tests"
    for subdir in ("server", "storage"):
        sys.path.insert(0, str(tests_root / subdir))
    from chaos import run_enospc_chaos, run_pool_chaos

    artifact_dir = (
        str(args.chaos_artifacts) if args.chaos_artifacts else None
    )
    failures: list[str] = []
    results: dict = {
        **gate.header("bench_http_throughput", args.smoke),
        "mode": "chaos",
        "seed": args.chaos_seed,
    }
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        scenarios = {
            "pool": lambda: run_pool_chaos(
                os.path.join(tmp, "pool-snap"),
                seed=args.chaos_seed,
                workers=2,
                clients=4,
                artifact_dir=artifact_dir,
            ),
            "enospc": lambda: run_enospc_chaos(
                os.path.join(tmp, "enospc-snap"),
                seed=args.chaos_seed,
                clients=2,
                artifact_dir=artifact_dir,
            ),
        }
        for name, run in scenarios.items():
            summary = run()
            results[name] = summary
            print(
                f"chaos[{name}]: {summary['requests']} requests, "
                f"{summary['wrong']} wrong, {summary['errors']} errored "
                f"({summary['error_rate']:.2%}), "
                f"{summary['client_retries']} client retries, "
                f"recovered={summary['recovered']}"
            )
            if summary["wrong"]:
                failures.append(f"{name}: {summary['wrong']} wrong answers")
            if summary["error_rate"] >= 0.02:
                failures.append(
                    f"{name}: error rate {summary['error_rate']:.2%} >= 2%"
                )
            if not summary["recovered"]:
                failures.append(f"{name}: did not recover within 10s")

    for failure in failures:
        print(f"FAIL: {failure}")
    gate.write(args.output, results)
    if artifact_dir:
        print(f"chaos artifacts in {artifact_dir}")
    return 1 if failures else 0


def _benchmark_store(smoke: bool):
    """(store, catalog) of the benchmark graph; a quarter scale under --smoke."""
    if smoke:
        os.environ.setdefault("REPRO_BENCH_SCALE", "0.25")
    from repro.bench.workloads import benchmark_catalog, make_benchmark_store

    return make_benchmark_store(), benchmark_catalog()


def measure(smoke: bool) -> dict:
    return run_http_benchmark(*_benchmark_store(smoke))


def run_soak_mode(args) -> int:
    """Windowed trend report — the nightly job body; only errors fail it."""
    store, catalog = _benchmark_store(args.smoke)
    results = {
        **gate.header("bench_http_throughput", args.smoke),
        "backend": store.backend_name,
        **run_soak(store, catalog, args.soak_seconds),
    }
    metrics_text = results.pop("_metrics_text")
    if args.metrics_output is not None:
        args.metrics_output.write_text(metrics_text)
        print(f"wrote final /metrics snapshot to {args.metrics_output}")
    for window in results["windows"]:
        rss = window["rss_bytes"]
        print(
            f"t={window['start_seconds']:6.1f}s  "
            f"{window['qps']:8.1f} req/s   "
            f"p50 {window['p50_seconds'] * 1e3:7.2f} ms   "
            f"p99 {window['p99_seconds'] * 1e3:7.2f} ms   "
            f"rss {rss / 1e6 if rss else 0:7.1f} MB"
        )
    growth = results["rss_growth"]
    print(
        f"soak: {results['requests']} requests over "
        f"{results['seconds']:.0f}s, errors {results['errors']}, "
        f"rss growth {growth:.3f}x" if growth is not None else
        f"soak: {results['requests']} requests, rss not sampled"
    )
    gate.write(args.output, results)
    if results["errors"]:
        print(f"FAIL: soak saw {results['errors']} non-200 responses "
              f"(first: {results['first_error']})")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = gate.parser(__doc__)
    parser.add_argument("--soak", action="store_true",
                        help="sustained-load soak mode (non-gating)")
    parser.add_argument("--soak-seconds", type=float, default=60.0,
                        help="soak duration in seconds (default 60)")
    parser.add_argument("--metrics-output", type=Path, default=None,
                        help="with --soak: write the final /metrics "
                        "exposition snapshot here (the nightly artifact)")
    parser.add_argument("--chaos", action="store_true",
                        help="seeded fault-injection mode (CI chaos job)")
    parser.add_argument("--chaos-seed", type=int,
                        default=int(os.environ.get("CHAOS_SEED", "7")),
                        help="fault schedule seed (default $CHAOS_SEED or 7)")
    parser.add_argument("--chaos-artifacts", type=Path,
                        default=os.environ.get("CHAOS_ARTIFACT_DIR") or None,
                        help="directory for chaos event journals and "
                        "/metrics snapshots (default $CHAOS_ARTIFACT_DIR)")
    args = parser.parse_args(argv)
    if args.chaos:
        return run_chaos_mode(args)
    if args.soak:
        return run_soak_mode(args)
    return gate.run("bench_http_throughput", measure, GATES, args)


if __name__ == "__main__":
    raise SystemExit(main())
