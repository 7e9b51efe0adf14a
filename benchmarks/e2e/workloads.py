"""The five workloads. README.md says why each exists.

Every workload is a closed loop of one thread: the next operation is
sent when the previous one has completed. A workload object goes through

    build()      one set-up repetition: generated triples -> a program
                 ready to answer, through its first answers
    prepare()    the seeded operation list (an input, not set-up)
    run()        operations for a time or a count, each one recorded; a
                 timed run is cut into slices with the host's speed
                 measured between them (common.calibrate)
    price()      the spans of one executed operation: its root, then the
                 twin's layer calls under it
    finish()     end-of-run checks; drop() releases the program

Operation ``i`` is a pure function of ``(seed, i)``; ``self.cursor``
carries ``i`` across warm-up, timed run and replay.
"""

from __future__ import annotations

import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro import (
    ConjunctiveQuery,
    QueryService,
    WireframeEngine,
    build_catalog,
    paper_diamond_queries,
    paper_queries,
    paper_snowflake_queries,
    save_snapshot,
)
from repro.storage import close_store, wal_path_for

from common import (
    DATA_SEED,
    answer_count,
    POOL_SIZE,
    SRC,
    Server,
    calibrate,
    dir_bytes,
    fixture_store,
    host_speed,
    post_query,
    query_body,
    query_pool,
)
from twin import Twin, raw_request


#: A timed run measures the host's speed this often.
SLICE_S = 0.5


class Record:
    """What a run observed: one entry per operation and, for a timed
    run, one ``(operations, seconds, host speed)`` per slice."""

    def __init__(self) -> None:
        self.index: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.observed: list["int | None"] = []
        self.status: list[int] = []
        self.slices: list[tuple[int, float, float]] = []

    def add(self, index, start, end, observed, status=200) -> None:
        self.index.append(index)
        self.start.append(start)
        self.end.append(end)
        self.observed.append(observed)
        self.status.append(status)

    def merge(self, other: "Record") -> None:
        for name in ("index", "start", "end", "observed", "status", "slices"):
            getattr(self, name).extend(getattr(other, name))

    @property
    def latencies(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    # -- a timed run, in reference seconds (common.REFERENCE_S) --------

    @property
    def host_speed(self) -> float:
        return statistics.median(speed for _, _, speed in self.slices)

    @property
    def reference_seconds(self) -> float:
        return sum(seconds * speed for _, seconds, speed in self.slices)

    @property
    def reference_latencies(self) -> list[float]:
        speeds = [speed for ops, _, speed in self.slices for _ in range(ops)]
        return [(e - s) * speed
                for s, e, speed in zip(self.start, self.end, speeds)]


class Workload:
    name = ""
    #: Operations in the traced replay (whole cycles of the op list).
    replay_ops = 0
    #: The server process, for the workloads that have one.
    server = None

    def __init__(self, scale: float, seed: int, work: Path):
        self.scale = scale
        self.seed = seed
        self.work = work
        self.rng = random.Random(seed)
        self.cursor = 0
        self.cycle = 0

    # -- to implement --------------------------------------------------

    def build(self) -> None: ...
    def drop(self) -> None: ...
    def prepare(self) -> None: ...
    def execute(self, i: int): ...
    def expected(self, i: int, oracle) -> int: ...
    def make_twin(self, tracer) -> Twin: ...
    def price(self, i: int, start: float, end: float, twin: Twin): ...

    def oracle_queries(self) -> list[ConjunctiveQuery]:
        return []

    def program_pid(self):
        return "self"

    def service_stats(self) -> "dict | None":
        """The program's own cache counters, if it has a service."""
        return None

    def finish(self, oracle) -> dict:
        """End-of-run checks; ``failed`` counts what they found wrong."""
        return {"failed": 0}

    # -- the closed loop -----------------------------------------------

    def run(self, seconds: "float | None" = None,
            count: "int | None" = None) -> Record:
        record = Record()
        if seconds is None:
            for _ in range(count):
                record.add(self.cursor, *self.execute(self.cursor))
                self.cursor += 1
            return record
        # ``seconds`` of slices, the reference loop before and after
        # each; its time is part of the run, not of any slice.
        clock = time.perf_counter
        deadline = clock() + seconds
        before = calibrate()
        while (began := clock()) < deadline:
            until = min(deadline, began + SLICE_S)
            first = len(record.index)
            while clock() < until:
                record.add(self.cursor, *self.execute(self.cursor))
                self.cursor += 1
            wall = clock() - began
            after = calibrate()
            record.slices.append((len(record.index) - first, wall,
                                  host_speed(before, after)))
            before = after
        return record

    def failures(self, record: Record, oracle) -> int:
        return sum(
            1 for i, observed in zip(record.index, record.observed)
            if observed != self.expected(i, oracle)
        )

    def first_failures(self, oracle) -> int:
        """Wrong answers among the first ones ``build()`` asked for. A
        query the oracle was not given is a write probe, which matches
        nothing before the first write."""
        return sum(
            1 for query, observed in zip(self.first_queries, self.first)
            if observed != oracle.get(query.to_sparql(), 0)
        )


# ----------------------------------------------------------------------
# table1_*: the engine alone, the paper's protocol
# ----------------------------------------------------------------------


class Table1(Workload):
    def __init__(self, name, queries, *args):
        super().__init__(*args)
        self.name = name
        self.queries = self.first_queries = queries
        self.store = self.engine = None

    def build(self) -> None:
        self.store = fixture_store(self.scale, "hashdict")
        self.engine = WireframeEngine(self.store)
        self.first = [
            self.engine.evaluate(q, materialize=True).count
            for q in self.queries
        ]

    def drop(self) -> None:
        self.store = self.engine = None

    def prepare(self) -> None:
        # Four passes per cycle, so the order in which the five queries
        # follow one another varies inside a cycle too.
        self.ops = [i for _ in range(4) for i in range(len(self.queries))]
        self.rng.shuffle(self.ops)
        self.cycle = len(self.ops)
        self.replay_ops = 3 * self.cycle
        self.texts = [query_body(q) for q in self.queries]

    def oracle_queries(self):
        return self.queries

    def execute(self, i):
        query = self.queries[self.ops[i % self.cycle]]
        start = time.perf_counter()
        result = self.engine.evaluate(query, materialize=True)
        end = time.perf_counter()
        return start, end, len(result.rows), 200

    def expected(self, i, oracle):
        return oracle[self.queries[self.ops[i % self.cycle]].to_sparql()]

    def make_twin(self, tracer):
        return Twin(tracer, self.store, QueryService(self.store, max_workers=1))

    def price(self, i, start, end, twin):
        which = self.ops[i % self.cycle]
        query = self.queries[which]
        root = twin.tr.add("op", start, end, None, asked=query.name)
        twin.engine(root, query)
        # Not on this workload's path: priced on its queries only.
        twin.transport_in(None, raw_request(self.texts[which], 0), False)
        result = twin.evaluate(None, query, False)
        twin.transport_out(None, query, result, False)


# ----------------------------------------------------------------------
# http_*: the production server process behind real sockets
# ----------------------------------------------------------------------


class Http(Workload):
    def __init__(self, name, *args):
        super().__init__(*args)
        self.name = name
        self.server = self.conn = self.store = None
        self.snapshot = self.work / "snapshot"
        self.first_queries = paper_queries()

    def build(self) -> None:
        self.store = fixture_store(self.scale, "columnar")
        shutil.rmtree(self.snapshot, ignore_errors=True)
        save_snapshot(self.store, self.snapshot)
        self.server = Server(self.snapshot, self.work / "server.log")
        self.conn = self.server.connect()
        self.first = []
        for query in self.first_queries:
            self.first.append(
                answer_count(*post_query(self.conn, query_body(query))))

    def drop(self) -> None:
        if self.conn is not None:
            self.conn.close()
        if self.server is not None:
            self.server.stop()
        self.server = self.conn = self.store = None

    def prepare(self) -> None:
        self.pool = query_pool(self.store, self.scale)
        self.bodies = [query_body(q) for q in self.pool]
        # Which queries are asked is fixed; the seed orders them. Letting
        # the seed pick the hot set moved throughput by +-25 %: response
        # sizes range from one row to the 100-row limit.
        if self.name == "http_hot":
            # 64 distinct queries, each once per cycle: a quarter of the
            # result cache's 256 entries. The 10 paper queries and every
            # 19th of the rest, so patterns and lookups keep their share.
            self.ops = list(range(10)) + list(range(10, POOL_SIZE, 19))[:54]
            self.rng.shuffle(self.ops)
            self.replay_ops = 3 * len(self.ops)
        else:
            # All 1,024, four times the result cache: 2,048 draws
            # Zipf(1.0) over a fixed ranking, so popular ones stay cached
            # and the tail misses. The draws are fixed too and the seed
            # orders them: a fresh sample per seed moved the miss count,
            # and with it throughput, by +-10 %.
            fixed = random.Random(DATA_SEED)
            ranked = list(range(POOL_SIZE))
            fixed.shuffle(ranked)
            weights = [1.0 / rank for rank in range(1, POOL_SIZE + 1)]
            self.ops = fixed.choices(ranked, weights, k=2048)
            self.rng.shuffle(self.ops)
            self.replay_ops = len(self.ops)
        self.cycle = len(self.ops)

    def oracle_queries(self):
        return self.pool

    def program_pid(self):
        return self.server.pid

    def service_stats(self):
        return self.server.stats()["service"]

    def execute(self, i):
        body = self.bodies[self.ops[i % self.cycle]]
        start = time.perf_counter()
        status, reply = post_query(self.conn, body)
        end = time.perf_counter()
        return start, end, answer_count(status, reply), status

    def expected(self, i, oracle):
        return oracle[self.pool[self.ops[i % self.cycle]].to_sparql()]

    def make_twin(self, tracer):
        service = QueryService.from_snapshot(
            self.snapshot, backend="columnar", max_workers=2)
        return Twin(tracer, service.store, service)

    def price(self, i, start, end, twin):
        which = self.ops[i % self.cycle]
        root = twin.tr.add("op", start, end, None, asked=self.pool[which].name)
        query = twin.transport_in(
            root, raw_request(self.bodies[which], self.server.port))
        result = twin.evaluate(root, query)
        twin.transport_out(root, query, result)


# ----------------------------------------------------------------------
# write_read_mix: durable writes beside cached reads
# ----------------------------------------------------------------------

BATCH = 16
#: Ten reads over eight queries: two hits, eight misses, the first of
#: them the probe that must see the write just acknowledged (and so pays
#: for the catalog rebuild). A cycle's eleven operations then sort as
#: 4 fast (write, the other probe, 2 hits), 6 paper-query misses of
#: 12-20 ms and the rebuild: the median sits inside the misses and the
#: 95th percentile inside the rebuilds. With 32 reads the median was a
#: 25 us cache hit that moved +-30 % between runs.
READS = (0, 1, 2, 3, 4, 5, 7, 0, 1)  # after probe1 (6); the seed orders them
CRASH_BATCHES = 64
LINK = "bench:link"


def batch_triples(tag: str, batch: int) -> list[tuple[str, str, str]]:
    """A 17-node path: 16 ``bench:link`` edges, 15 two-edge chains."""
    return [
        (f"{tag}:{batch}:{i}", LINK, f"{tag}:{batch}:{i + 1}")
        for i in range(BATCH)
    ]


class WriteReadMix(Workload):
    name = "write_read_mix"

    def __init__(self, *args):
        super().__init__(*args)
        self.service = None
        self.snapshot = self.work / "wal-snapshot"
        self.cycle = 2 + len(READS)
        self.replay_ops = 3 * self.cycle
        snow, diamond = paper_snowflake_queries(), paper_diamond_queries()
        # Six paper queries over predicates the writes never touch, of
        # similar cost (12-20 ms) so that the p95 of a cycle does not sit
        # on a gap between two of them, and two probes over the written
        # predicate.
        self.queries = [snow[0], snow[3], snow[4],
                        diamond[0], diamond[2], diamond[3],
                        ConjunctiveQuery([("?a", LINK, "?b")], name="probe1"),
                        ConjunctiveQuery([("?a", LINK, "?b"),
                                          ("?b", LINK, "?c")], name="probe2")]
        self.first_queries = self.queries
        self.tag = f"w{self.seed}"

    def _open(self) -> QueryService:
        return QueryService.from_snapshot(self.snapshot, wal=True, max_workers=1)

    def _remove_files(self) -> None:
        shutil.rmtree(self.snapshot, ignore_errors=True)
        Path(wal_path_for(self.snapshot)).unlink(missing_ok=True)

    def build(self) -> None:
        self._remove_files()
        save_snapshot(fixture_store(self.scale, "columnar"), self.snapshot)
        self.service = self._open()
        self.first = [self.service.evaluate(q).count for q in self.queries]

    def drop(self) -> None:
        if self.service is not None:
            self.service.close()
            close_store(self.service.store)
            self.service = None

    @property
    def store(self):
        return self.service.store

    def prepare(self) -> None:
        rest = list(READS)
        self.rng.shuffle(rest)
        self.reads = [6] + rest
        self.texts = [query_body(q) for q in self.queries]

    def oracle_queries(self):
        return self.queries[:6]

    def service_stats(self):
        return self.service.snapshot()

    # Cycle c writes one batch: an add, or on every 4th cycle the
    # removal of the oldest batch still live.
    @staticmethod
    def _write_of(cycle: int) -> tuple[bool, int]:
        removes_before = cycle // 4
        if cycle % 4 == 3:
            return False, removes_before
        return True, cycle - removes_before

    @staticmethod
    def live_batches(cycle: int) -> int:
        """Batches present once cycle ``cycle``'s write is acknowledged."""
        done = cycle + 1
        return done - 2 * (done // 4)

    def execute(self, i):
        cycle, pos = divmod(i, self.cycle)
        store = self.store
        if pos == 0:
            add, batch = self._write_of(cycle)
            triples = batch_triples(self.tag, batch)
            if add:
                start = time.perf_counter()
                changed = store.add_term_triples(triples)
            else:
                lookup = store.dictionary.lookup
                ids = [tuple(map(lookup, triple)) for triple in triples]
                start = time.perf_counter()
                changed = store.remove_triples(ids)
            return start, time.perf_counter(), changed, 200
        query = self.queries[self.reads[pos - 1]]
        start = time.perf_counter()
        result = self.service.evaluate(query)
        end = time.perf_counter()
        self._last = result
        return start, end, len(result.rows), 200

    def expected(self, i, oracle):
        cycle, pos = divmod(i, self.cycle)
        if pos == 0:
            return BATCH
        which = self.reads[pos - 1]
        if which < 6:
            return oracle[self.queries[which].to_sparql()]
        return (BATCH if which == 6 else BATCH - 1) * self.live_batches(cycle)

    def make_twin(self, tracer):
        return Twin(tracer, self.store, self.service, owns_service=False)

    def price(self, i, start, end, twin):
        tr = twin.tr
        pos = i % self.cycle
        # The roots are calls into a layer themselves: the service here
        # is the program, not a twin of it.
        if pos == 0:
            tr.add("storage.write", start, end, None,
                   asked=str(self._write_of(i // self.cycle)))
            return
        which = self.reads[pos - 1]
        query = self.queries[which]
        root = tr.add("service.evaluate", start, end, None, asked=query.name)
        if pos == 1:
            # The first read after a write rebuilds the statistics.
            tr.call("stats.catalog_build", root, build_catalog, twin.store)
        twin.annotate_service(root, self._last, query)
        twin.transport_in(None, raw_request(self.texts[which], 0), False)
        twin.transport_out(None, query, self._last, False)

    # -- end of run: compaction, a crash, recovery ---------------------

    def finish(self, oracle) -> dict:
        """Compact, hand the store to a holder process that acknowledges
        exactly 64 more batches, SIGKILL it, reopen, and count what is
        missing. The kill leaves the OS page cache intact: this proves
        write ordering and replay, not that the device kept the bytes."""
        live = self.live_batches((self.cursor - 1) // self.cycle)
        # A second thread keeps reading a cached answer while the log is
        # folded in: its slowest read is the stall compaction causes.
        cached = self.queries[0]
        self.service.evaluate(cached)
        stall = [0.0]
        compacting = threading.Event()

        def reader() -> None:
            # Paced, not spinning: a busy reader would take the
            # interpreter lock from the compaction it is observing.
            while not compacting.wait(0.001):
                start = time.perf_counter()
                self.service.evaluate(cached)
                stall[0] = max(stall[0], time.perf_counter() - start)

        thread = threading.Thread(target=reader)
        thread.start()
        started = time.perf_counter()
        try:
            self.service.compact()
        finally:
            compact_s = time.perf_counter() - started
            compacting.set()
            thread.join()
        rewritten = dir_bytes(self.snapshot)
        self.drop()

        holder = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("holder.py")),
             str(SRC), str(self.snapshot), f"{self.tag}c", str(CRASH_BATCHES)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        ack_seconds = []
        try:
            for line in holder.stdout:
                ack_seconds.append(float(line.split()[1]))
                if len(ack_seconds) == CRASH_BATCHES:
                    break
        finally:
            holder.kill()
            killed = time.perf_counter()
            holder.wait()
            holder.stdin.close()
            holder.stdout.close()

        self.service = self._open()
        found = self.service.evaluate(self.queries[6]).count
        reopen_s = time.perf_counter() - killed
        want = BATCH * (live + len(ack_seconds))
        on_disk = dir_bytes(self.snapshot) + Path(
            wal_path_for(self.snapshot)).stat().st_size
        return {
            "disk_bytes_per_triple": on_disk / self.store.num_triples,
            "compact_s": compact_s,
            "compact_stall_s": stall[0],
            "compact_bytes_rewritten": rewritten,
            "reopen_s": reopen_s,
            "lost_acked_writes": max(0, want - found),
            "failed": abs(want - found),
            "crash_ack_seconds": ack_seconds,
        }


def make(name: str, scale: float, seed: int, work: Path) -> Workload:
    args = (scale, seed, work)
    if name == "table1_snowflake":
        return Table1(name, paper_snowflake_queries(), *args)
    if name == "table1_diamond":
        return Table1(name, paper_diamond_queries(), *args)
    if name in ("http_hot", "http_mixed"):
        return Http(name, *args)
    if name == "write_read_mix":
        return WriteReadMix(*args)
    raise SystemExit(f"unknown workload {name!r}")
