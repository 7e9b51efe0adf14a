"""Per-layer metrics: probes that time one public call of one layer on
the fixture, and the sums that turn a traced replay into numbers.

Names are ``<layer>.<what>_<unit>`` with layer = a top-level module of
``src/repro``. README.md lists which end-to-end metric each should move.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import time
from pathlib import Path

from repro import (
    Dictionary,
    TripleStore,
    build_catalog,
    load_snapshot,
    load_snapshot_catalog,
    save_snapshot,
)
from repro.client import ReproClient
from repro.storage import WriteAheadLog, replay_wal

from common import Server, dir_bytes, fixture_store, post_query
from workloads import BATCH, WriteReadMix, batch_triples

LOOKUPS = 10_000
DECODES = 20_000
WAL_APPENDS = 128
SERVER_PROBES = 200


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


# ----------------------------------------------------------------------
# Probes: one layer, one call, the fixture as input
# ----------------------------------------------------------------------


def _graph_probes(prefix: str, store, triples, rng, m: dict) -> None:
    sample = [triples[rng.randrange(len(triples))] for _ in range(LOOKUPS)]
    start = time.perf_counter()
    for n, (s, p, o) in enumerate(sample):
        if n % 2:
            store.predecessors(p, o)
        else:
            store.successors(p, s)
    m[f"{prefix}.lookup_ns"] = (time.perf_counter() - start) / LOOKUPS * 1e9
    start = time.perf_counter()
    edges = 0
    for p in store.predicates():
        for _ in store.edges(p):
            edges += 1
    m[f"{prefix}.scan_ns_per_edge"] = (time.perf_counter() - start) / edges * 1e9


def _build(backend: str, dictionary, triples) -> TripleStore:
    store = TripleStore(dictionary=dictionary, backend=backend)
    store.add_triples(triples)
    store.freeze()
    return store


def storage_and_graph(scale: float, work: Path, seed: int, m: dict) -> Path:
    """datasets, graph, stats and snapshot storage; returns a snapshot
    of the fixture for the probes that need one."""
    rng = random.Random(seed)
    m["datasets.generate_s"], hashdict = _timed(fixture_store, scale, "hashdict")
    triples = list(hashdict.triples())
    terms = hashdict.dictionary
    m["graph.hashdict.build_s"], _ = _timed(_build, "hashdict", terms, triples)
    m["graph.columnar.build_s"], columnar = _timed(
        _build, "columnar", terms, triples)
    n = len(triples)
    m["graph.hashdict.index_bytes_per_triple"] = hashdict.index_bytes() / n
    m["graph.columnar.index_bytes_per_triple"] = columnar.index_bytes() / n
    seconds, _ = _timed(build_catalog, hashdict)
    m["stats.catalog_build_ms"] = seconds * 1e3

    snapshot = work / "probe-snapshot"
    shutil.rmtree(snapshot, ignore_errors=True)
    m["storage.snapshot_save_s"], _ = _timed(save_snapshot, columnar, snapshot)
    m["storage.snapshot_bytes_per_triple"] = dir_bytes(snapshot) / n

    def open_(use_mmap: bool):
        store = load_snapshot(snapshot, backend="columnar", use_mmap=use_mmap,
                              lazy_terms=use_mmap)
        load_snapshot_catalog(snapshot)
        return store

    seconds, mapped = _timed(open_, True)
    m["storage.open_mmap_ms"] = seconds * 1e3
    seconds, eager = _timed(open_, False)
    m["storage.open_eager_ms"] = seconds * 1e3

    _graph_probes("graph.hashdict", hashdict, triples, rng, m)
    # The mapped store is the one the server answers from.
    _graph_probes("graph.columnar", mapped, triples, rng, m)

    ids = [rng.randrange(len(eager.dictionary)) for _ in range(DECODES)]
    seconds, _ = _timed(mapped.dictionary.decode_many, ids)
    m["storage.termdict_decode_ns_per_term"] = seconds / DECODES * 1e9
    seconds, _ = _timed(eager.dictionary.decode_many, ids)
    m["graph.dictionary_decode_ns_per_term"] = seconds / DECODES * 1e9
    return snapshot


def wal(work: Path, m: dict) -> None:
    """``WriteAheadLog.append`` at the default flush policy
    (``fsync="batch"``: durable on return) and ``replay_wal``."""
    path = work / "probe.wal"
    path.unlink(missing_ok=True)
    dictionary = Dictionary()
    log = WriteAheadLog.open(path)
    appends = []
    try:
        for batch in range(WAL_APPENDS):
            base = len(dictionary)
            adds = [tuple(map(dictionary.encode, triple))
                    for triple in batch_triples("p", batch)]
            terms = dictionary.decode_many(range(base, len(dictionary)))
            seconds, _ = _timed(log.append, term_base=base, terms=terms,
                                adds=adds)
            appends.append(seconds)
        stats = log.stats()
    finally:
        log.close()
    m["storage.wal_append_us"] = statistics.median(appends) * 1e6
    m["storage.wal_fsyncs_per_append"] = stats["fsyncs"] / stats["appended"]
    m["storage.wal_bytes_per_triple"] = stats["size_bytes"] / (WAL_APPENDS * BATCH)
    store = TripleStore(dictionary=Dictionary())
    seconds, (records, _) = _timed(replay_wal, store, path)
    m["storage.replay_ms_per_record"] = seconds / records * 1e3


def write_path(workload: WriteReadMix, record, tail: dict, m: dict) -> None:
    """Write-path numbers from a ``write_read_mix`` run and its crash."""
    acks, first_reads = [], []
    for i, latency in zip(record.index, record.latencies):
        pos = i % workload.cycle
        if pos == 0:
            acks.append(latency)
        elif pos == 1:
            first_reads.append(latency)
    m["write_ack_p50_ms"] = statistics.median(
        acks + tail["crash_ack_seconds"]) * 1e3
    m["read_after_write_p50_ms"] = statistics.median(first_reads) * 1e3
    m["storage.compact_ms"] = tail["compact_s"] * 1e3
    m["storage.compact_stall_ms"] = tail["compact_stall_s"] * 1e3
    m["storage.compact_bytes_rewritten"] = tail["compact_bytes_rewritten"]
    m["reopen_s"] = tail["reopen_s"]
    m["lost_acked_writes"] = tail["lost_acked_writes"]
    m["disk_bytes_per_triple"] = tail["disk_bytes_per_triple"]


def write_path_probe(scale: float, work: Path, seed: int, oracle, m: dict) -> int:
    """Three cycles of ``write_read_mix`` on a scratch store, then its
    crash; returns the number of wrong answers."""
    probe_dir = work / "write-probe"
    probe_dir.mkdir(exist_ok=True)
    workload = WriteReadMix(scale, seed, probe_dir)
    workload.build()
    try:
        workload.prepare()
        known = oracle.counts(workload.store, workload.oracle_queries())
        record = workload.run(count=3 * workload.cycle)
        tail = workload.finish(known)
    finally:
        workload.drop()
    write_path(workload, record, tail, m)
    return workload.failures(record, known) + tail["failed"]


def server(snapshot: Path, work: Path, sparql: str, m: dict,
           running: "Server | None" = None) -> None:
    """What the client library and ``include_trace`` add to a cached
    request's round trip."""
    srv = running or Server(snapshot, work / "probe-server.log")
    try:
        plain = json.dumps({"sparql": sparql}).encode()
        traced = json.dumps({"sparql": sparql, "include_trace": True}).encode()
        client = ReproClient("127.0.0.1", srv.port, retries=0)
        conn = srv.connect()
        raw, with_trace, library = [], [], []
        try:
            post_query(conn, plain)
            for _ in range(SERVER_PROBES):
                seconds, _ = _timed(post_query, conn, plain)
                raw.append(seconds)
                seconds, _ = _timed(post_query, conn, traced)
                with_trace.append(seconds)
            # Apart from the loop above: the client library opens a
            # connection per request, and the server closing it would
            # slow whichever request came next.
            for _ in range(SERVER_PROBES):
                seconds, _ = _timed(client.query, sparql)
                library.append(seconds)
        finally:
            conn.close()
    finally:
        if running is None:
            srv.stop()
    base = statistics.median(raw)
    m["client.overhead_us"] = (statistics.median(library) - base) * 1e6
    m["obs.include_trace_overhead_us"] = (
        statistics.median(with_trace) - base) * 1e6


# ----------------------------------------------------------------------
# The traced replay, as numbers
# ----------------------------------------------------------------------

#: Stage span -> (metric, factor from seconds). The value is the mean
#: self time of one call, over every call the twin made in the run.
STAGES = {
    "query.parse": ("query.parse_us", 1e6),
    "query.bind": ("query.bind_us", 1e6),
    "planner.ag_plan": ("planner.ag_plan_us", 1e6),
    "planner.chordify": ("planner.chordify_us", 1e6),
    "planner.embedding_plan": ("planner.embedding_plan_us", 1e6),
    "core.generation": ("core.generation_ms", 1e3),
    "core.defactorize": ("core.defactorize_ms", 1e3),
    "service.signature": ("service.signature_us", 1e6),
    "server.http_parse": ("server.http_parse_us", 1e6),
    "server.wire_parse": ("server.wire_parse_us", 1e6),
    "server.serialize": ("server.serialize_us", 1e6),
}

SHARE_LAYERS = ("query", "planner", "core", "stats", "service", "server",
                "storage")


def from_trace(tracer, twin, m: dict) -> None:
    spans = tracer.spans
    own = tracer.self_times()
    by_name: dict[str, list[float]] = {}
    for span, self_time in zip(spans, own):
        by_name.setdefault(span["name"], []).append(self_time)
    for name, (metric, factor) in STAGES.items():
        m[metric] = statistics.fmean(by_name[name]) * factor

    hits = [s["end"] - s["start"] for s in spans
            if s["name"] == "service.evaluate" and s.get("cache") == "hit"]
    misses = [own[s["id"]] for s in spans
              if s["name"] == "service.evaluate" and s.get("cache") == "miss"]
    # Medians: a workload may miss only a handful of times, and one
    # collector pause in a re-run would swamp a mean of five.
    m["service.hit_path_us"] = statistics.median(hits) * 1e6
    m["service.miss_overhead_us"] = statistics.median(misses) * 1e6

    # Where a replayed operation's time went: self time of the spans on
    # its path, by layer, over the operations' total duration. What no
    # layer call accounts for is the residual: for an HTTP workload the
    # sockets, the event loop and the hand-off to the worker thread.
    # A root named after a layer (write_read_mix calls the service and the
    # store directly) is that layer's own time, not residual.
    replay = [s for s in spans if s["phase"] == "replay" and s["on_path"]]
    roots = [s for s in replay if s["parent"] is None]
    total = sum(s["end"] - s["start"] for s in roots)
    by_layer = dict.fromkeys(SHARE_LAYERS + ("op",), 0.0)
    for span in replay:
        by_layer[span["name"].split(".")[0]] += own[span["id"]]
    for layer in SHARE_LAYERS:
        m[f"{layer}.op_time_share"] = by_layer[layer] / total
    residual = [own[s["id"]] for s in roots]
    m["bench.residual_op_time_share"] = by_layer["op"] / total
    m["server.residual_us"] = statistics.median(residual) * 1e6
    # 1.0 when every operation's layer calls fit inside it; above 1.0 by
    # the share of time the twin's calls overran the operation they price.
    overrun = sum(-r for r in residual if r < 0)
    m["bench.reconcile_ratio"] = (total + overrun) / total
    m["bench.replay_ops"] = len(roots)

    runs = twin.engine_runs
    n = len(runs)

    def total_of(key: str) -> float:
        return sum(run[key] for run in runs)

    walks = total_of("edge_walks")
    m["core.edge_walks_per_op"] = walks / n
    m["core.ag_edges_per_op"] = total_of("ag_edges") / n
    m["core.burned_nodes_per_op"] = total_of("burned_nodes") / n
    m["core.spurious_pairs_per_op"] = total_of("spurious_pairs") / n
    m["core.walks_per_s"] = walks / total_of("generation_s")
    m["core.rows_per_s"] = total_of("rows") / total_of("defactorize_s")
    m["core.rows_per_ag_edge"] = total_of("rows") / total_of("ag_edges")
    m["planner.est_cost_over_walks"] = total_of("estimated_cost") / walks


def trace_overhead(replayed, plain, cycle: int) -> float:
    """How much slower the replay's operations were than the same
    operations with no twin between them: each position of the cycle is
    compared with itself, and the median of those ratios taken."""
    def by_position(record) -> dict[int, float]:
        groups: dict[int, list[float]] = {}
        for i, latency in zip(record.index, record.latencies):
            groups.setdefault(i % cycle, []).append(latency)
        return {k: statistics.median(v) for k, v in groups.items()}

    traced, untraced = by_position(replayed), by_position(plain)
    return statistics.median(traced[k] / untraced[k] for k in untraced) - 1.0


def cache_deltas(before: "dict | None", after: "dict | None", ops: int,
                 m: dict) -> None:
    """The program's own cache counters over the replay."""
    for cache in ("result_cache", "plan_cache"):
        rate = 0.0
        if before is not None:
            hits = after[cache]["hits"] - before[cache]["hits"]
            lookups = after[cache]["lookups"] - before[cache]["lookups"]
            rate = hits / lookups if lookups else 0.0
        m[f"service.{cache}_hit_rate"] = rate
    m["service.coalesced_per_op"] = (
        (after["coalesced"] - before["coalesced"]) / ops
        if before is not None else 0.0
    )
