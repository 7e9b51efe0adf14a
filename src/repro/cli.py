"""Command-line interface: ``repro <command>`` / ``python -m repro <command>``.

Commands
--------
``stats``      summarize a dataset and its catalog
``query``      evaluate a SPARQL CQ with any of the five engines
``batch``      serve many queries through the concurrent QueryService
``serve``      expose the QueryService over HTTP (the /v1 JSON API)
``mine``       mine non-empty template queries from a dataset
``table1``     regenerate the paper's Table 1
``save``       write a dataset as a durable binary snapshot (offline prep)
``dump``       export a dataset as an N-Triples file
``compact``    fold a snapshot's write-ahead log into a new generation
``wal-inspect``  print a write-ahead log's health and replay horizon

JSON output (``query --json``, ``batch --json``) and the HTTP wire
format share one canonical serialization:
:meth:`repro.query.model.ConjunctiveQuery.to_dict` for queries and
:meth:`repro.engine_api.EngineResult.to_dict` for results.

Every dataset command reads ``--snapshot DIR`` (a durable snapshot
written by ``save`` — warm-starts without re-parsing) or builds the
graph in-process from ``--scale``/``--seed``; ``repro save OUT --scale S
--seed N`` generates and persists in one step.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench.harness import BenchmarkProtocol
from repro.bench.table1 import format_table1, reproduce_table1
from repro.bench.workloads import ENGINE_ORDER, default_engines
from repro.core.gc_pause import collector_paused
from repro.datasets.loader import load_dataset
from repro.datasets.yago_like import generate_yago_like
from repro.errors import EvaluationTimeout, ReproError
from repro.graph.backends import DEFAULT_BACKEND, available_backends
from repro.graph.store import TripleStore
from repro.graph.ntriples import dump_ntriples_file
from repro.query.miner import QueryMiner
from repro.query.parser import parse_query
from repro.storage import save_snapshot
from repro.query.templates import (
    chain_template,
    cycle_template,
    diamond_template,
    snowflake_template,
    star_template,
)
from repro.stats.catalog import Catalog, build_catalog
from repro.utils import domains
from repro.utils.deadline import Deadline
from repro.utils.domains import MAX_REPEAT

_TEMPLATES = {
    "snowflake": snowflake_template,
    "diamond": diamond_template,
    "chain": lambda: chain_template(3),
    "star": lambda: star_template(3),
    "cycle": lambda: cycle_template(4),
}


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--snapshot",
        help="durable snapshot written by `save` (mmap warm start)",
    )
    parser.add_argument(
        "--scale", type=domains.scale, default=1.0,
        help="in-process YAGO-like scale (ignored with --snapshot)",
    )
    parser.add_argument("--seed", type=domains.seed, default=0)
    parser.add_argument(
        "--backend", choices=available_backends(), default=None,
        help="storage backend for the triple indexes "
        f"(default: $REPRO_BACKEND or {DEFAULT_BACKEND!r})",
    )
    parser.add_argument(
        "--wal", action="store_true",
        help="with --snapshot: open crash-safe — replay the snapshot's "
        "write-ahead log over it and journal every further mutation "
        "(the store stays writable instead of frozen)",
    )


def _load(args) -> tuple[TripleStore, Catalog]:
    if args.snapshot:
        if args.wal:
            from repro.storage import open_store

            # open_store seeds the catalog memo from the snapshot and
            # patches the replayed batches in: no rebuild on recovery.
            store = open_store(args.snapshot, backend=args.backend)
            return store, store.catalog()
        return load_dataset(args.snapshot, backend=args.backend)
    store = generate_yago_like(scale=args.scale, seed=args.seed, backend=args.backend)
    return store, build_catalog(store)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wireframe answer-graph CQ evaluation "
        "(EDBT 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="summarize a dataset")
    _add_dataset_args(p_stats)
    p_stats.add_argument("--top", type=domains.count, default=10,
                         help="show the N most frequent predicates")

    p_query = sub.add_parser("query", help="evaluate a SPARQL CQ")
    _add_dataset_args(p_query)
    group = p_query.add_mutually_exclusive_group(required=True)
    group.add_argument("--sparql", help="query text")
    group.add_argument("--file", help="file containing the query")
    p_query.add_argument(
        "--engine", choices=ENGINE_ORDER, default="WF",
        help="which system evaluates the query (default WF)",
    )
    p_query.add_argument("--timeout", type=domains.seconds, default=300.0)
    p_query.add_argument("--limit", type=domains.count, default=20,
                         help="print at most N rows (0 = count only)")
    p_query.add_argument("--edge-burnback", action="store_true",
                         help="enable edge burnback (WF only)")
    p_query.add_argument("--explain", action="store_true",
                         help="print the Wireframe plans")
    p_query.add_argument("--json", action="store_true",
                         help="emit the canonical wire-form query and result "
                         "as JSON (the same shapes the /v1 HTTP API serves; "
                         "--explain then prints to stderr)")

    p_batch = sub.add_parser(
        "batch",
        help="evaluate many queries concurrently through the QueryService",
    )
    _add_dataset_args(p_batch)
    source = p_batch.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--file",
        help="file of SPARQL queries separated by blank lines ('-' = stdin)",
    )
    source.add_argument(
        "--template", choices=sorted(_TEMPLATES),
        help="mine the workload from this template instead of a file",
    )
    p_batch.add_argument("--count", type=domains.repeat, default=20,
                         help="queries to mine with --template (default 20)")
    p_batch.add_argument("--repeat", type=domains.repeat, default=1,
                         help="repeat the workload N times (exercises caches; "
                         f"at most {MAX_REPEAT})")
    p_batch.add_argument("--workers", type=domains.workers, default=None,
                         help="thread-pool width (default min(8, cpus))")
    p_batch.add_argument("--timeout", type=domains.seconds, default=300.0,
                         help="per-query budget in seconds")
    p_batch.add_argument("--no-result-cache", action="store_true",
                         help="disable the service result cache")
    p_batch.add_argument("--json", action="store_true",
                         help="emit per-query results and stats as JSON")

    p_serve = sub.add_parser(
        "serve",
        help="expose the QueryService over HTTP (versioned /v1 JSON API)",
    )
    _add_dataset_args(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=domains.port, default=8080,
                         help="bind port (default 8080; 0 = ephemeral)")
    p_serve.add_argument("--workers", type=domains.workers, default=1,
                         help="worker processes (default 1; >= 2 serves a "
                         "prefork pool over a shared mmap snapshot and "
                         "requires --snapshot)")
    p_serve.add_argument("--threads", type=domains.workers, default=None,
                         help="service thread-pool width per process "
                         "(default min(8, cpus))")
    p_serve.add_argument("--max-pending", type=domains.positive, default=64,
                         help="in-flight query bound before 503 load shedding")
    p_serve.add_argument("--max-body-kib", type=domains.positive, default=1024,
                         help="request body cap in KiB (default 1024)")
    p_serve.add_argument("--timeout", type=domains.seconds, default=300.0,
                         help="per-query budget in seconds for requests "
                         "without their own timeout (default 300)")
    p_serve.add_argument("--limit", type=domains.count, default=100,
                         help="default decoded-row cap per response")
    p_serve.add_argument("--slow-query-ms", type=domains.milliseconds,
                         default=None,
                         help="log any request slower than this many "
                         "milliseconds as a structured slow_query line "
                         "with its per-stage spans")
    p_serve.add_argument("--log-json", action="store_true",
                         help="emit JSON-lines lifecycle events "
                         "(server_start, worker_ready, handoff, ...) "
                         "on stderr")
    p_serve.add_argument("--metrics-port", type=domains.port, default=None,
                         help="with --workers >= 2: serve the pool's "
                         "aggregated GET /metrics on this extra port "
                         "(single-process servers expose /metrics on "
                         "the main port already)")
    p_serve.add_argument("--watchdog-interval", type=domains.seconds_or_off,
                         default=10.0,
                         help="with --workers >= 2: seconds between "
                         "liveness pings to each worker's event loop; "
                         "0 disables the watchdog (default 10)")
    p_serve.add_argument("--watchdog-timeout", type=domains.seconds, default=5.0,
                         help="with --workers >= 2: seconds a worker may "
                         "take to answer a ping before it is killed and "
                         "respawned (default 5)")

    p_mine = sub.add_parser("mine", help="mine non-empty template queries")
    _add_dataset_args(p_mine)
    p_mine.add_argument("--template", choices=sorted(_TEMPLATES),
                        default="snowflake")
    p_mine.add_argument("--count", type=domains.repeat, default=5)
    p_mine.add_argument("--miner-seed", type=domains.seed, default=0)

    p_t1 = sub.add_parser("table1", help="regenerate the paper's Table 1")
    _add_dataset_args(p_t1)
    p_t1.add_argument("--runs", type=domains.repeat, default=3)
    p_t1.add_argument("--timeout", type=domains.seconds, default=60.0)
    p_t1.add_argument(
        "--engines", type=domains.subset_of(ENGINE_ORDER),
        default=",".join(ENGINE_ORDER),
        help="comma-separated engine subset (default all five)",
    )

    p_save = sub.add_parser(
        "save",
        help="write the dataset as a durable snapshot (mmap warm start)",
    )
    _add_dataset_args(p_save)
    p_save.add_argument("out", help="snapshot directory to write")
    p_save.add_argument(
        "--no-catalog", action="store_true",
        help="skip persisting the statistics catalog",
    )
    p_save.add_argument(
        "--no-overwrite", action="store_true",
        help="fail instead of replacing an existing snapshot",
    )

    p_dump = sub.add_parser(
        "dump", help="export the dataset as an N-Triples file",
    )
    _add_dataset_args(p_dump)
    p_dump.add_argument("out", help="N-Triples file to write ('-' = stdout)")

    p_compact = sub.add_parser(
        "compact",
        help="fold a snapshot's write-ahead log into a new snapshot "
        "generation and truncate the log",
    )
    p_compact.add_argument("snapshot", help="snapshot directory (its .wal "
                           "sibling is the log being folded in)")
    p_compact.add_argument(
        "--backend", choices=available_backends(), default=None,
        help="storage backend used for the fold-in "
        f"(default: $REPRO_BACKEND or {DEFAULT_BACKEND!r})",
    )
    p_compact.add_argument(
        "--no-catalog", action="store_true",
        help="skip persisting the statistics catalog",
    )

    p_walinspect = sub.add_parser(
        "wal-inspect",
        help="print a write-ahead log's record count, committed sequence "
        "horizon, byte size, and — when damaged — where replay stops",
    )
    p_walinspect.add_argument(
        "path", help="a .wal file or the snapshot directory it belongs to",
    )
    p_walinspect.add_argument("--json", action="store_true",
                              help="emit a machine-readable JSON document "
                              "(adds the decoded file header and "
                              "per-record summaries)")
    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------


def _cmd_stats(args) -> int:
    store, catalog = _load(args)
    print(f"triples:    {store.num_triples}")
    print(f"nodes:      {store.num_nodes}")
    print(f"predicates: {len(store.predicates())}")
    print(f"backend:    {store.backend_name} "
          f"({store.index_bytes() / 1024:.0f} KiB of indexes)")
    by_count = sorted(
        ((catalog.unigram(p).count, p) for p in store.predicates()),
        reverse=True,
    )
    shown = by_count[: args.top]
    labels = store.dictionary.decode_many([p for _, p in shown])
    print(f"top {args.top} predicates:")
    for (count, p), label in zip(shown, labels):
        stat = catalog.unigram(p)
        print(
            f"  {label:32} {count:>8} edges  "
            f"avg-out {stat.avg_out:5.2f}  avg-in {stat.avg_in:5.2f}"
        )
    return 0


def _cmd_query(args) -> int:
    store, catalog = _load(args)
    if args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = args.sparql
    query = parse_query(text)

    engine = default_engines(store, catalog, names=(args.engine,))[0]
    if args.edge_burnback:
        from repro.core.engine import WireframeEngine

        engine = WireframeEngine(store, catalog, edge_burnback=True)

    prepared = steps = None
    # Under --json, stdout carries the JSON document alone.
    explain_out = sys.stderr if args.json else sys.stdout
    if args.explain:
        prepared = engine.plan(query)
        _, ag_plan, chordification = prepared
        print("answer-graph plan:", file=explain_out)
        print(ag_plan.describe(query), file=explain_out)
        if not chordification.is_trivial:
            print(f"chords: {len(chordification.chords)}, "
                  f"triangles: {len(chordification.triangles)}",
                  file=explain_out)

    deadline = Deadline(args.timeout)
    start = time.perf_counter()
    try:
        if prepared is not None:
            result, steps = _evaluate_explained(
                engine, query, deadline, prepared, args.limit
            )
        elif args.engine == "WF" and args.limit > 0:
            # Phase 2 builds only the rows shown; count stays exact.
            result = engine.evaluate(query, deadline=deadline, limit=args.limit)
        else:
            result = engine.evaluate(
                query, deadline=deadline, materialize=args.limit > 0
            )
    except EvaluationTimeout as exc:
        if args.json:
            print(json.dumps({
                "query": query.to_dict(),
                "error": {"code": "timeout", "message": str(exc)},
            }, indent=2))
        else:
            print(f"* (timed out after {args.timeout:.0f}s)")
        return 1
    elapsed = time.perf_counter() - start
    if steps is not None:
        print(_format_step_walks(steps), file=explain_out)

    if args.json:
        # The same canonical forms the /v1 HTTP API serves: the query
        # as its wire document, the result through EngineResult.to_dict.
        payload = {
            "query": query.to_dict(),
            "columns": [v.name for v in query.projection],
            "elapsed_seconds": elapsed,
            "backend": store.backend_name,
            "result": result.to_dict(
                store.dictionary, limit=args.limit if args.limit > 0 else None
            ),
        }
        print(json.dumps(payload, indent=2))
        return 0

    print(f"{result.count} rows in {elapsed:.3f}s [{engine.name}] "
          f"(backend {store.backend_name})")
    if result.stats.get("ag_size") is not None:
        print(f"|AG| = {result.stats['ag_size']}, "
              f"edge walks = {result.stats.get('edge_walks')}")
    if result.rows:
        header = "\t".join(f"?{v.name}" for v in query.projection)
        print(header)
        # One batched decode_many for everything shown — flat per-row
        # cost on the eager and the lazy (mmap) dictionary alike.
        for row in result.decoded_rows(store.dictionary, limit=args.limit):
            print("\t".join(row))
        if result.count > args.limit:
            print(f"... ({result.count - args.limit} more)")
    return 0


def _evaluate_explained(engine, query, deadline, prepared, limit: int):
    """``engine.evaluate`` for ``repro query`` (``limit`` 0 = count
    only), plus each generation step's ``(estimated, actual)`` walks.
    The collector stays paused until the answer graph is freed, and
    the rows are reported to the pause, as in
    :meth:`~repro.core.engine.WireframeEngine.evaluate`."""
    with collector_paused() as pause:
        detailed = engine.evaluate_detailed(
            query, deadline, limit > 0, prepared=prepared, limit=limit or None
        )
        steps = list(zip(
            detailed.ag_plan.step_costs, detailed.generation_stats.step_walks
        ))
        result = engine.engine_result(detailed)
        del detailed
        pause.hand_back(len(result.rows or ()))
    return result, steps


def _format_step_walks(steps: list[tuple[float, int]]) -> str:
    """One line per generation step, estimated vs actual edge walks,
    then the whole plan's q-error: the factor between the two totals.
    Both sides are floored at 1 walk, so a zero never divides."""
    lines = ["estimated vs actual walks:"]
    for i, (estimated, actual) in enumerate(steps):
        ratio = max(estimated, 1.0) / max(actual, 1)
        lines.append(f"{i + 1}. ~{estimated:.0f} est, {actual} actual "
                     f"(ratio {ratio:.2f})")
    estimated = sum(cost for cost, _ in steps)
    actual = sum(walks for _, walks in steps)
    ratio = max(estimated, 1.0) / max(actual, 1)
    lines.append(f"plan q-error: {max(ratio, 1 / ratio):.2f} "
                 f"(~{estimated:.0f} est, {actual} actual)")
    return "\n".join(lines)


def _parse_query_file(text: str):
    """Split a workload file into queries on blank lines."""
    blocks = [b.strip() for b in text.split("\n\n")]
    return [parse_query(b) for b in blocks if b]


def format_stats(snapshot: dict) -> str:
    """One-screen rendering of :meth:`QueryService.snapshot
    <repro.service.QueryService.snapshot>` (``repro batch``'s summary)."""
    lines = []
    for key in ("completed", "coalesced", "timeouts", "failures", "queued", "running"):
        lines.append(f"  {key:<12} {snapshot.get(key, 0)}")
    for name in ("plan_cache", "result_cache"):
        cache = snapshot.get(name)
        if cache:
            lines.append(
                f"  {name:<12} {cache['hits']}/{cache['lookups']} hits "
                f"({100.0 * cache['hit_rate']:.0f}%)"
            )
    latencies = snapshot.get("latency_seconds", {})
    for phase in ("queue", "plan", "exec", "total"):
        digest = latencies.get(phase)
        if digest and digest["count"]:
            lines.append(
                f"  {phase + ' (s)':<12} mean {digest['mean']:.4f}  "
                f"p50 {digest['p50']:.4f}  p99 {digest['p99']:.4f}"
            )
    return "\n".join(lines)


def _cmd_batch(args) -> int:
    from repro.service import QueryService

    store, catalog = _load(args)
    if args.file:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        queries = _parse_query_file(text)
    else:
        miner = QueryMiner(store, seed=args.seed,
                           forbidden_labels=["rdf:type"])
        template = _TEMPLATES[args.template]()
        queries = miner.mine(template, count=args.count)
    queries = queries * args.repeat
    if not queries:
        print("error: empty workload", file=sys.stderr)
        return 2

    start = time.perf_counter()
    with QueryService(
        store,
        catalog=catalog,
        max_workers=args.workers,
        result_cache_size=0 if args.no_result_cache else 256,
        # A WAL-attached store must stay writable (journaled mutations).
        freeze=store.write_log is None,
    ) as service:
        results = service.evaluate_many(
            queries, deadlines=args.timeout, materialize=False,
            return_exceptions=True,
        )
        elapsed = time.perf_counter() - start
        snapshot = service.snapshot()

    if args.json:
        # One canonical serialization, shared with the /v1 HTTP API:
        # queries as their wire documents, results via
        # EngineResult.to_dict, errors via the wire's exception map.
        from repro.server.wire import map_exception

        entries = []
        for q, r in zip(queries, results):
            entry: dict = {"query": q.to_dict()}
            if isinstance(r, ReproError):
                _status, code, message = map_exception(r)
                entry["error"] = {"code": code, "message": message}
            else:
                entry["result"] = r.to_dict(store.dictionary)
            entries.append(entry)
        payload = {
            "elapsed_seconds": elapsed,
            "queries": entries,
            "stats": snapshot,
        }
        print(json.dumps(payload, indent=2))
        return 0

    ok = sum(1 for r in results if not isinstance(r, ReproError))
    for i, (query, result) in enumerate(zip(queries, results)):
        label = query.name or f"q{i}"
        if isinstance(result, EvaluationTimeout):
            print(f"  {label:<24} *")
        elif isinstance(result, ReproError):
            print(f"  {label:<24} ! {result}")
        else:
            svc = result.stats.get("service", {})
            print(f"  {label:<24} {result.count:>8} rows  "
                  f"[plan {svc.get('plan_cache', '?')}, "
                  f"result {svc.get('result_cache', '?')}]")
    print(f"{ok}/{len(queries)} queries in {elapsed:.3f}s "
          f"({len(queries) / elapsed:.1f} q/s)")
    print("service stats:")
    print(format_stats(snapshot))
    return 0


def _cmd_serve(args) -> int:
    from repro.server import serve
    from repro.service import QueryService

    if args.workers > 1:
        return _serve_prefork(args)
    if args.snapshot:
        # from_snapshot records the path/generation /v1/stats reports
        # and, with --wal, opens the DurableStore the service closes.
        service = QueryService.from_snapshot(
            args.snapshot,
            backend=args.backend,
            wal=args.wal,
            max_workers=args.threads,
        )
    else:
        store, catalog = _load(args)
        service = QueryService(
            store, catalog=catalog, max_workers=args.threads, freeze=True
        )
    store = service.store
    with service:

        def on_ready(address):
            host, port = address
            print(
                f"serving {store.num_triples} triples "
                f"(backend {store.backend_name}) on http://{host}:{port} "
                f"— POST /v1/query, /v1/batch; GET /v1/health, /v1/stats; "
                f"Ctrl-C drains and exits",
                flush=True,
            )

        from repro.obs.logging import JsonLogger

        serve(
            service,
            host=args.host,
            port=args.port,
            on_ready=on_ready,
            **_server_options(args),
            logger=JsonLogger() if args.log_json else None,
        )
    return 0


def _server_options(args) -> dict:
    """The ``HTTPQueryServer`` options of ``serve``, one process or N."""
    return {
        "max_pending": args.max_pending,
        "max_body_bytes": args.max_body_kib * 1024,
        "default_timeout": args.timeout,
        "default_row_limit": args.limit,
        "slow_query_seconds": (
            args.slow_query_ms / 1000.0
            if args.slow_query_ms is not None else None
        ),
    }


def _serve_prefork(args) -> int:
    """The multi-process branch of ``serve`` (``--workers N >= 2``),
    over the ``--snapshot`` that :func:`_refusal` requires."""
    from repro.server import serve_prefork

    def on_ready(address):
        host, port = address
        print(
            f"serving snapshot {args.snapshot} with {args.workers} worker "
            f"processes on http://{host}:{port} — POST /v1/query, "
            f"/v1/batch; GET /v1/health, /v1/stats; new snapshot "
            f"generations hand off live; Ctrl-C drains and exits",
            flush=True,
        )

    serve_prefork(
        args.snapshot,
        workers=args.workers,
        host=args.host,
        port=args.port,
        backend=args.backend,
        threads=args.threads,
        on_ready=on_ready,
        metrics_port=args.metrics_port,
        watchdog_interval=args.watchdog_interval,
        watchdog_timeout=args.watchdog_timeout,
        log_json=args.log_json,
        server_options=_server_options(args),
    )
    return 0


def _cmd_mine(args) -> int:
    store, _ = _load(args)
    miner = QueryMiner(store, seed=args.miner_seed,
                       forbidden_labels=["rdf:type"])
    template = _TEMPLATES[args.template]()
    queries = miner.mine(template, count=args.count)
    for query in queries:
        print(query.to_sparql())
        print()
    return 0


def _cmd_table1(args) -> int:
    store, _ = _load(args)
    protocol = BenchmarkProtocol(
        runs=args.runs,
        discard=1 if args.runs > 1 else 0,
        timeout=args.timeout,
    )
    rows = reproduce_table1(store=store, engines=args.engines, protocol=protocol)
    print(format_table1(rows, engines=args.engines))
    return 0


def _cmd_save(args) -> int:
    start = time.time()
    store, catalog = _load(args)
    if not store.frozen:
        store.freeze()
    manifest = save_snapshot(
        store,
        args.out,
        catalog=None if args.no_catalog else catalog,
        include_catalog=not args.no_catalog,
        overwrite=not args.no_overwrite,
    )
    segment_bytes = sum(
        entry["bytes"] for entry in manifest["files"].values()
    )
    print(
        f"snapshot {args.out}: {manifest['num_triples']} triples, "
        f"{len(manifest['predicates'])} segments, "
        f"{manifest['num_terms']} terms "
        f"({segment_bytes / 1024:.0f} KiB, backend {manifest['backend']}) "
        f"in {time.time() - start:.1f}s"
    )
    return 0


def _cmd_dump(args) -> int:
    store, _ = _load(args)
    start = time.time()
    n = dump_ntriples_file(store, args.out)
    if args.out != "-":
        print(f"wrote {n} triples to {args.out} in {time.time() - start:.1f}s")
    return 0


def _cmd_compact(args) -> int:
    from repro.storage import (
        close_store,
        compact,
        open_store,
        scan_wal,
        wal_path_for,
    )

    start = time.time()
    wal_file = wal_path_for(args.snapshot)
    before = scan_wal(wal_file)
    store = open_store(args.snapshot, backend=args.backend, create=False)
    try:
        manifest = compact(
            store, args.snapshot, include_catalog=not args.no_catalog
        )
    finally:
        close_store(store)
    print(
        f"compacted {args.snapshot}: folded {len(before.records)} WAL "
        f"records ({before.size_bytes} bytes) into generation "
        f"{manifest['generation']} ({manifest['num_triples']} triples) "
        f"in {time.time() - start:.1f}s"
    )
    return 0


def _cmd_wal_inspect(args) -> int:
    from repro.storage import wal_inspect

    summary = wal_inspect(args.path, include_records=args.json)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        width = max(len(k) for k in summary)
        for key, value in summary.items():
            print(f"{key:<{width}}  {value}")
    # A torn tail is recoverable by construction; only pre-horizon
    # corruption (status "corrupt") is a failing condition.
    return 1 if summary.get("status") == "corrupt" else 0


_COMMANDS = {
    "stats": _cmd_stats,
    "query": _cmd_query,
    "batch": _cmd_batch,
    "serve": _cmd_serve,
    "mine": _cmd_mine,
    "table1": _cmd_table1,
    "save": _cmd_save,
    "dump": _cmd_dump,
    "compact": _cmd_compact,
    "wal-inspect": _cmd_wal_inspect,
}


def _refusal(args) -> str | None:
    """Why ``args`` combine options that cannot work together, or
    ``None``. Checked before any dataset is built or server started."""
    if getattr(args, "wal", False) and not args.snapshot:
        return ("--wal journals the writes to a snapshot's log; pass "
                "--snapshot PATH (see `repro save`)")
    if args.command == "query" and args.engine != "WF":
        for flag in ("edge_burnback", "explain"):
            if getattr(args, flag):
                return (f"--{flag.replace('_', '-')} applies to the WF "
                        f"engine only, not --engine {args.engine}")
    if args.command != "serve":
        return None
    if args.workers == 1:
        if args.metrics_port is not None:
            return ("--metrics-port only applies to a --workers >= 2 pool; "
                    "a single-process server already answers GET /metrics "
                    "on its main port")
    elif not args.snapshot:
        # Every worker maps the same generation read-only; there is
        # nothing to fork from an in-memory graph.
        return ("--workers >= 2 serves a prefork pool over a shared mmap "
                "snapshot; pass --snapshot PATH (see `repro save`)")
    elif args.wal:
        # A writable store belongs to a single owner, not a read-only pool.
        return ("--wal opens a writable store owned by one process; a "
                "--workers pool is read-only (run the writer separately "
                "and let the pool hand off on each compaction)")
    return None


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code (2 for a usage
    error, such as a value outside its option's domain, or options
    that do not combine)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage and the error
        return exc.code
    refusal = _refusal(args)
    if refusal is not None:
        print(f"error: {refusal}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
