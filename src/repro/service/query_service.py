"""A long-lived, concurrent query service over one triple store.

:class:`QueryService` is the production-shaped front end the ROADMAP
asks for: it owns a store and its statistics catalog (kept current by
the store, patched per write batch), keeps one Wireframe engine alive,
and serves many queries through a thread pool. Two caches sit in front
of the engine:

1. a **plan cache** keyed on the alpha-invariant query signature, so a
   repeated query *template* skips the Edgifier/Triangulator and reuses
   its ``(AGPlan, Chordification)`` verbatim;
2. a **result cache** keyed on ``(signature, materialize)``, so an
   exactly-repeated query returns without touching the engine at all.
   A submission's ``limit`` reaches phase 2, so an entry may hold only
   the first rows of its answer (with the exact count); it then serves
   a request asking for no more rows than it holds, and any other is a
   miss whose evaluation replaces it.

Entries of both are stamped with the mutation counters of the query's
own predicates (``TripleStore.predicate_epoch``): a write invalidates
exactly the entries whose query mentions a predicate it changed — never
a stale answer, and no miss for a query the write could not affect.

Evaluation over the store is read-only, so one engine is safely shared
by all workers (the store's lazy permutation indexes materialize under
a lock). Deadlines stay cooperative: each worker polls its per-query
:class:`~repro.utils.deadline.Deadline` exactly as the serial engine
does, and a timed-out query surfaces as
:class:`~repro.errors.EvaluationTimeout` on its future.

The service only evaluates. A journaled store's lifecycle — sealing the
write-ahead log, folding it into snapshot generations, the background
compactor and degraded mode — belongs to the
:class:`~repro.storage.DurableStore` that
``from_snapshot(path, wal=True)`` opens and keeps as :attr:`durable`.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace
from typing import Iterable, Sequence

from repro.core.engine import WireframeEngine
from repro.datasets.loader import load_dataset
from repro.engine_api import EngineResult
from repro.errors import EvaluationTimeout, ReproError, StoreError
from repro.graph.store import TripleStore
from repro.obs.gc_metrics import register_gc_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import activate_trace, current_trace, deactivate_trace
from repro.query.model import ConjunctiveQuery
from repro.service.caches import PlanCache, ResultCache
from repro.service.signature import plan_signature, query_signature
from repro.stats.catalog import Catalog
from repro.storage import DurableStore, MmapDictionary, snapshot_generation
from repro.utils import domains
from repro.utils.deadline import Deadline

#: ``repro_service_stage_seconds`` labels: queue wait, planning, execution, total.
_PHASES = ("queue", "plan", "exec", "total")


def _default_workers() -> int:
    return min(8, os.cpu_count() or 1)


def _budget_of(deadline: "Deadline | float | None") -> float:
    """The seconds a submission may still spend evaluating (inf = none)."""
    if deadline is None:
        return float("inf")
    if isinstance(deadline, Deadline):
        return deadline.remaining
    return float(deadline)


def _covers(leader_limit: int | None, limit: int | None) -> bool:
    """Whether a result built for ``leader_limit`` rows holds the
    ``limit`` rows another request asks for (``None`` = all of them)."""
    return leader_limit is None or (limit is not None and limit <= leader_limit)


def _chain_future(target: "Future[EngineResult]"):
    """A done-callback copying one future's outcome onto ``target``."""

    def callback(source: "Future[EngineResult]") -> None:
        exc = source.exception()
        if exc is not None:
            target.set_exception(exc)
        else:
            target.set_result(source.result())

    return callback


class QueryService:
    """Serve many conjunctive queries concurrently over one store.

    Parameters
    ----------
    store:
        The data graph. Freezing it (``freeze=True``, or freezing it
        yourself beforehand) is recommended for serving; an unfrozen
        store is tolerated — a mutation patches the catalog on the next
        query and invalidates the cached plans and results of queries
        over the predicates it changed, and only those.
    catalog:
        Optional prebuilt statistics for the store's *current* epoch.
        When omitted the store's memoized catalog is used.
    max_workers:
        Thread-pool width (default: ``min(8, cpu_count)``), at most
        ``MAX_WORKERS`` (:mod:`repro.utils.domains`).
    plan_cache_size / result_cache_size:
        Capacities of the two ARC-evicted caches; ``0`` disables the
        respective cache.
    coalesce:
        Deduplicate identical *in-flight* queries: while a query is
        being evaluated, further submissions of an alpha-equivalent
        query attach to the leader's future instead of evaluating again
        (the classic thundering-herd guard). A follower only attaches
        when its own budget is at least the leader's — it then waits no
        longer than its budget allows, because the leader completes or
        times out within that window — and when the leader builds every
        row the follower's ``limit`` asks for; any other duplicate
        evaluates independently. If the leader times out under its own
        budget, followers are transparently resubmitted under theirs.
    freeze:
        Freeze the store (and its dictionary) at construction.

    >>> from repro.graph.builder import GraphBuilder
    >>> store = (
    ...     GraphBuilder()
    ...     .edge("alice", "knows", "bob")
    ...     .edge("bob", "knows", "carol")
    ...     .build(freeze=True)
    ... )
    >>> from repro.query.parser import parse_sparql
    >>> q = parse_sparql("select ?a, ?b where { ?a knows ?b }")
    >>> with QueryService(store) as service:
    ...     service.submit(q).result().count
    2
    """

    def __init__(
        self,
        store: TripleStore,
        catalog: Catalog | None = None,
        max_workers: int | None = None,
        plan_cache_size: int = 512,
        result_cache_size: int = 256,
        coalesce: bool = True,
        freeze: bool = False,
    ):
        self.max_workers = (
            _default_workers()
            if max_workers is None
            else domains.workers(max_workers, "max_workers")
        )
        if freeze and not store.frozen:
            store.freeze()
        self.store = store
        # Cache keys carry the backend name alongside the epoch: a
        # service handed a store with a different physical layout can
        # never alias cached plans/results from another layout, even if
        # cache objects are shared or persisted across services.
        self._backend_name = store.backend_name
        self.plan_cache = PlanCache(plan_cache_size)
        self.result_cache = ResultCache(result_cache_size)
        # The per-service metrics registry: the only record of what the
        # service counts and times itself (see _register_metrics);
        # snapshot() reads /v1/stats back out of it.
        self.metrics = MetricsRegistry()
        self.coalesce = coalesce
        # key -> (leader future, leader budget in seconds at submit,
        # leader row limit).
        self._inflight: dict[
            tuple, "tuple[Future[EngineResult], float, int | None]"
        ] = {}
        self._inflight_lock = threading.Lock()
        self._refresh_lock = threading.Lock()
        self._epoch = store.epoch
        self._engine = WireframeEngine(store, catalog)
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-query"
        )
        self._closed = False
        #: The journaled store's lifecycle when ``from_snapshot(wal=True)``
        #: opened this service, else ``None``.
        self.durable: "DurableStore | None" = None
        # The snapshot a plain from_snapshot() service answers from, so
        # /v1/stats can say which generation that is.
        self._source = {"path": None, "generation": None}
        # The mapped term dictionary from_snapshot() opened; close() drops it.
        self._mapped_terms: "MmapDictionary | None" = None
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Register the service's metrics.

        Facts the service records itself are children bound once here.
        Everything else is a scrape-time callback over state other
        objects own; WAL/snapshot callbacks return ``None`` (sample
        omitted) when the service has no such facility.
        """
        reg = self.metrics
        self._queue_depth = reg.gauge(
            "repro_service_queue_depth",
            "Queries submitted but not yet picked up by a worker.",
        ).labels()
        self._in_flight = reg.gauge(
            "repro_service_in_flight", "Queries currently evaluating."
        ).labels()
        queries = reg.counter(
            "repro_service_queries_total", "Completed queries by outcome.", ("outcome",)
        )
        self._outcomes = {}
        for outcome in ("ok", "timeout", "error"):
            self._outcomes[outcome] = queries.labels(outcome)
            self._outcomes[outcome].inc(0)  # scraped as 0 before any query
        self._coalesced = reg.counter(
            "repro_service_coalesced_total",
            "Duplicate in-flight queries attached to a leader's future.",
        ).labels()
        self._short_circuits = reg.counter(
            "repro_service_result_cache_short_circuits_total",
            "Queries answered from the result cache without entering "
            "the pool.",
        ).labels()
        self._stage_seconds = reg.histogram(
            "repro_service_stage_seconds",
            "Per-phase service latency (queue wait, planning, "
            "execution, and their total).",
            labelnames=("stage",),
        )
        self._stages = [self._stage_seconds.labels(phase) for phase in _PHASES]
        for metric, field in (
            ("repro_cache_lookups_total", "lookups"),
            ("repro_cache_hits_total", "hits"),
            ("repro_cache_evictions_total", "evictions"),
            ("repro_cache_stale_drops_total", "stale_drops"),
        ):
            reg.callback(
                metric,
                f"Cache {field} by cache name.",
                lambda f=field: {
                    ("plan",): getattr(self.plan_cache.stats(), f),
                    ("result",): getattr(self.result_cache.stats(), f),
                },
                kind="counter",
                labelnames=("cache",),
            )
        reg.callback(
            "repro_cache_size",
            "Entries currently cached, by cache name.",
            lambda: {
                ("plan",): self.plan_cache.stats().size,
                ("result",): self.result_cache.stats().size,
            },
            labelnames=("cache",),
        )
        reg.callback(
            "repro_store_triples",
            "Triples in the served store.",
            lambda: self.store.num_triples,
            aggregation="max",
        )
        reg.callback(
            "repro_catalog_refreshes_total",
            "Statistics-catalog refreshes after a write, by kind: "
            "patched from the write batches (delta) or rebuilt (full).",
            lambda: {
                (kind,): n for kind, n in self.store.catalog_refreshes.items()
            },
            kind="counter",
            labelnames=("kind",),
        )
        reg.callback(
            "repro_store_epoch",
            "Store epoch this service last synchronized with.",
            lambda: self._epoch,
            aggregation="max",
        )
        reg.callback(
            "repro_snapshot_generation",
            "Durable snapshot generation currently being served.",
            lambda: self.source["generation"],
            aggregation="max",
        )
        reg.callback(
            "repro_service_compactions_total",
            "WAL compactions folded into new snapshot generations.",
            lambda: 0 if self.durable is None else self.durable.compactions,
            kind="counter",
        )

        def wal_stat(field):
            return None if self.durable is None else self.durable.stats()[field]

        reg.callback(
            "repro_wal_records",
            "Records in the live write-ahead log.",
            lambda: wal_stat("records"),
        )
        reg.callback(
            "repro_wal_size_bytes",
            "Write-ahead log size on disk.",
            lambda: wal_stat("size_bytes"),
        )
        reg.callback(
            "repro_wal_durable_seq",
            "Highest fsync-durable WAL sequence number.",
            lambda: wal_stat("durable_seq"),
            aggregation="max",
        )
        reg.callback(
            "repro_service_degraded",
            "Whether the service is in read-only degraded mode (1) "
            "after a WAL append failure, or healthy (0).",
            lambda: int(self._degraded()),
            aggregation="max",
        )
        reg.callback(
            "repro_service_degraded_probes_total",
            "Degraded-mode recovery probes attempted, by outcome.",
            lambda: {
                (outcome,): 0 if self.durable is None else self.durable.probes[outcome]
                for outcome in ("ok", "failed")
            },
            kind="counter",
            labelnames=("outcome",),
        )
        for metric, field, help_text in (
            ("repro_wal_appends_total", "appended", "Records appended."),
            ("repro_wal_fsyncs_total", "fsyncs", "fsync() calls issued."),
            (
                "repro_wal_append_failures_total",
                "append_failures",
                "Appends that failed at the OS level and rolled back.",
            ),
            (
                "repro_wal_rollbacks_total",
                "rollbacks",
                "Unsynced-record rollbacks after a failed fsync.",
            ),
            (
                "repro_wal_group_commits_total",
                "group_commits",
                "Group commits (one fsync covering >= 1 append).",
            ),
            (
                "repro_wal_absorbed_total",
                "absorbed",
                "Appends whose fsync was absorbed by a group commit.",
            ),
        ):
            reg.callback(
                metric,
                f"Write-ahead log: {help_text}",
                lambda f=field: wal_stat(f),
                kind="counter",
            )
        register_gc_metrics(reg)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def from_snapshot(
        cls, path, *, backend=None, wal: bool = False, **service_kwargs
    ) -> "QueryService":
        """Construct a service straight from a durable snapshot.

        The store and catalog come from
        :func:`repro.datasets.loader.load_dataset`: zero-copy mmap onto
        the columnar backend by default, frozen, with the snapshot's
        stored catalog instead of rebuilt statistics. On a format-v2
        snapshot a memory-mapped open also uses the **lazy mmap
        dictionary**, so the term vocabulary is never parsed either —
        the cold-start cost is O(1) in both triple and term count: no
        parsing, no dictionary materialization, no sort. Remaining
        keyword arguments are forwarded to the constructor.

        ``wal=True`` opens the **crash-safe writable path** instead: a
        :class:`~repro.storage.DurableStore`, kept as :attr:`durable`
        and closed by :meth:`close`. Its store arrives unfrozen with the
        write-ahead log replayed (the snapshot need not exist yet), and
        every mutation journals durably (``fsync="batch"``). The stored
        catalog seeds the store's catalog memo and the replayed batches
        are patched into it, so recovery pays no statistics rebuild
        either.
        """
        if wal:
            durable = DurableStore.open(path, backend=backend)
            service = cls(durable.store, **service_kwargs)
            service.durable = durable
            return service

        store, catalog = load_dataset(path, backend=backend)
        service = cls(store, catalog=catalog, **service_kwargs)
        service._source = {
            "path": os.fspath(path),
            "generation": snapshot_generation(path),
        }
        if isinstance(store.dictionary, MmapDictionary):
            service._mapped_terms = store.dictionary
        return service

    def compact(self) -> dict:
        """:meth:`DurableStore.compact <repro.storage.DurableStore.compact>`;
        :class:`~repro.errors.StoreError` without a :attr:`durable` store."""
        if self.durable is None:
            raise StoreError("this service has no write-ahead log to compact")
        return self.durable.compact()

    @property
    def read_only(self) -> bool:
        """True when there is no :attr:`durable` store to persist or compact."""
        return self.durable is None

    def _degraded(self) -> bool:
        return self.durable is not None and self.durable.degraded

    @property
    def engine(self) -> WireframeEngine:
        """The currently active engine (rebuilt when the store mutates)."""
        return self._engine

    @property
    def epoch(self) -> int:
        """The store epoch this service last synchronized with."""
        return self._epoch

    def close(self, wait: bool = True) -> None:
        """Shut the worker pool down; the service cannot be reused.

        Also closes what :meth:`from_snapshot` opened: the
        :attr:`durable` store, if any (its compactor stops and its
        write-ahead log is sealed and closed), or else the mapped term
        dictionary. A store passed to the constructor is left open.
        """
        self._closed = True
        self._pool.shutdown(wait=wait)
        if self.durable is not None:
            self.durable.close()
        if self._mapped_terms is not None:
            self._mapped_terms.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _refresh_if_stale(self) -> None:
        """Re-synchronize the engine after a store mutation.

        The common case (epoch unchanged) is a single integer compare.
        On change, the engine is rebuilt over the store's catalog (which
        the store patches from the pending write batches). Neither cache
        is cleared: entries invalidate themselves, one by one, through
        their predicate-version stamps.
        """
        if self.store.epoch == self._epoch:
            return
        with self._refresh_lock:
            # Read before the rebuild: a write landing meanwhile leaves
            # the service stale again, never marked fresher than it is.
            epoch = self.store.epoch
            if epoch == self._epoch:
                return
            self._engine = WireframeEngine(self.store)
            self._epoch = epoch

    def _versions(self, query: ConjunctiveQuery) -> tuple:
        """The mutation counter of each of ``query``'s predicates.

        A CQ's answer is a function of the edge sets of its own
        predicates only (a constant can only match through them), so
        equal versions prove an unchanged answer. A label the dictionary
        has not interned reads ``0``, as does one never written.
        """
        lookup = self.store.dictionary.lookup
        version = self.store.predicate_epoch
        return tuple(version(lookup(edge.predicate)) for edge in query.edges)

    # ------------------------------------------------------------------
    # Submission APIs
    # ------------------------------------------------------------------

    def submit(
        self,
        query: ConjunctiveQuery,
        deadline: Deadline | float | None = None,
        materialize: bool = True,
        trace=None,
        limit: int | None = None,
    ) -> "Future[EngineResult]":
        """Enqueue one query; returns a future of its ``EngineResult``.

        ``deadline`` may be a :class:`Deadline` (its clock is already
        running, so time spent queued counts against the budget) or a
        float budget in seconds (the clock starts when a worker picks
        the query up). Timeouts surface as
        :class:`~repro.errors.EvaluationTimeout` from ``result()``.

        ``limit`` is how many rows the caller will show (``None`` =
        all). The result holds at least that many — all of them when the
        answer has no more — and an exact ``count``: a miss builds only
        the first ``limit`` rows, a hit may hold more.

        ``trace`` (a :class:`repro.obs.trace.Trace`) rides along into
        the worker thread, where it is re-activated so engine-side
        spans land on it — contextvars do not flow into pool threads by
        themselves. When omitted, the trace active in the *calling*
        context (if any) is captured, so ``evaluate``/``evaluate_many``
        inherit the caller's trace transparently.
        """
        if self._closed:
            raise RuntimeError("QueryService is closed")
        if trace is None:
            trace = current_trace()
        self._refresh_if_stale()
        # Queue wait is measured from here: everything below (signature
        # hashing, cache lookup, pool handoff) is time the caller spends
        # waiting for evaluation to start.
        submitted_at = time.perf_counter()
        epoch = self._epoch
        # Results are keyed on the exact (alpha-invariant) query;
        # plans on the broader structural key that also canonicalizes
        # constants, so "same template, different entity" reuses a plan.
        # Both keys are qualified by the active backend name.
        result_key = (self._backend_name, query_signature(query), materialize)
        plan_key = (self._backend_name, plan_signature(query))

        cached = self.result_cache.get_result(
            result_key, epoch, lambda: self._versions(query), limit=limit
        )
        if cached is not None:
            # Served without touching the pool: complete the future now,
            # with the entry's own hit-annotated result (and whatever
            # rendering of it the entry already carries).
            self._short_circuits.inc()
            self._outcomes["ok"].inc()
            self._record_latency(0.0, 0.0, 0.0)
            future: "Future[EngineResult]" = Future()
            future.set_result(cached)
            return future

        # Read before evaluation starts: _run caches its result only if
        # these still hold when it finishes.
        versions = self._versions(query)
        # A follower may only join a leader that set out from the same
        # versions: one that started before a write to these predicates
        # could hand back an answer older than the follower's submit.
        inflight_key = (result_key, versions)
        leader: "Future[EngineResult] | None" = None
        budget = _budget_of(deadline)
        with self._inflight_lock:
            if self.coalesce:
                entry = self._inflight.get(inflight_key)
                # Attach only when our budget covers the leader's worst
                # case; a stricter duplicate evaluates independently so
                # its deadline stays enforced. So does one asking for
                # more rows than the leader builds.
                if (
                    entry is not None
                    and budget >= entry[1]
                    and _covers(entry[2], limit)
                ):
                    leader = entry[0]
            if leader is None:
                self._queue_depth.inc()
                try:
                    future = self._pool.submit(
                        self._run, query, result_key, plan_key, epoch, versions,
                        deadline, materialize, limit, submitted_at, trace,
                    )
                except RuntimeError:
                    # The pool refused the job (a close() raced past the
                    # check above): no worker will ever pick it up.
                    self._queue_depth.dec()
                    raise
                if self.coalesce and inflight_key not in self._inflight:
                    self._inflight[inflight_key] = (future, budget, limit)
                    future.add_done_callback(
                        # dict.pop is atomic; deliberately lock-free —
                        # this callback can fire synchronously right here.
                        lambda _f, _k=inflight_key: self._inflight.pop(_k, None)
                    )
                return future
        # Coalesced path, outside the lock: the leader's completion
        # callback may run synchronously and (on leader timeout)
        # re-enter submit(), which takes the lock again.
        follower: "Future[EngineResult]" = Future()
        self._coalesced.inc()
        leader.add_done_callback(
            self._follower_callback(follower, query, deadline, materialize, limit)
        )
        return follower

    def _follower_callback(
        self,
        follower: "Future[EngineResult]",
        query: ConjunctiveQuery,
        deadline: Deadline | float | None,
        materialize: bool,
        limit: int | None,
    ):
        """Completion hook chaining a coalesced follower to its leader.

        Success propagates the leader's result (re-annotated as
        ``coalesced`` on a copy). A leader *timeout* only proves
        the leader's budget was too small, so the follower is resubmitted
        under its own deadline; any other failure propagates as-is.
        """

        def callback(leader: "Future[EngineResult]") -> None:
            exc = leader.exception()
            if exc is None:
                self._outcomes["ok"].inc()
                follower.set_result(
                    self._annotate(leader.result(), "coalesced", "coalesced")
                )
            elif isinstance(exc, EvaluationTimeout):
                # Not counted here: the resubmission records its own
                # outcome through the normal worker path.
                try:
                    retry = self.submit(query, deadline, materialize, limit=limit)
                except BaseException as submit_exc:  # pool closed, etc.
                    follower.set_exception(submit_exc)
                else:
                    retry.add_done_callback(_chain_future(follower))
            else:
                self._outcomes["error"].inc()
                follower.set_exception(exc)

        return callback

    def evaluate(
        self,
        query: ConjunctiveQuery,
        deadline: Deadline | float | None = None,
        materialize: bool = True,
        limit: int | None = None,
    ) -> EngineResult:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(query, deadline, materialize, limit=limit).result()

    def evaluate_many(
        self,
        queries: Iterable[ConjunctiveQuery],
        deadlines: Sequence[Deadline | float | None] | Deadline | float | None = None,
        materialize: bool = True,
        return_exceptions: bool = False,
    ) -> list:
        """Evaluate a batch, preserving input order.

        ``deadlines`` is either one budget applied to every query or a
        sequence aligned with ``queries``. With
        ``return_exceptions=True``, a query that times out (or raises
        any other :class:`~repro.errors.ReproError`) contributes the
        exception object at its position instead of aborting the batch.
        """
        query_list = list(queries)
        if isinstance(deadlines, (Deadline, float, int)) or deadlines is None:
            per_query: list = [deadlines] * len(query_list)
        else:
            per_query = list(deadlines)
            if len(per_query) != len(query_list):
                raise ValueError(
                    f"got {len(per_query)} deadlines for {len(query_list)} queries"
                )
        futures = [
            self.submit(query, deadline, materialize)
            for query, deadline in zip(query_list, per_query)
        ]
        results = []
        for future in futures:
            try:
                results.append(future.result())
            except ReproError as exc:
                if not return_exceptions:
                    raise
                results.append(exc)
        return results

    # ------------------------------------------------------------------
    # Worker path
    # ------------------------------------------------------------------

    def _run(
        self,
        query: ConjunctiveQuery,
        result_key: tuple,
        plan_key: tuple,
        epoch: int,
        versions: tuple,
        deadline: Deadline | float | None,
        materialize: bool,
        limit: int | None,
        submitted_at: float,
        trace=None,
    ) -> EngineResult:
        self._queue_depth.dec()
        self._in_flight.inc()
        picked_up = time.perf_counter()
        queue_seconds = picked_up - submitted_at
        outcome = "error"
        token = None
        if trace is not None:
            trace.add_timed("queue_wait", submitted_at, picked_up)
            # Re-activate on this worker thread so engine-side
            # trace_span() hooks find the trace through the contextvar.
            token = activate_trace(trace)
        try:
            if isinstance(deadline, Deadline):
                effective = deadline
            elif deadline is None:
                effective = Deadline.unlimited()
            else:
                effective = Deadline(float(deadline))
            # A query whose budget drained while it sat in the queue
            # fails fast instead of starting doomed work.
            effective.check_now()

            # The result cache may have been filled while we queued
            # (don't re-count: submit() already recorded this lookup).
            cached = self.result_cache.get_result(
                result_key, epoch, lambda: self._versions(query),
                record=False, limit=limit,
            )
            if cached is not None:
                outcome = "ok"
                self._record_latency(queue_seconds, 0.0, 0.0)
                return self._annotate(
                    cached, "cached", "hit", queue_seconds=queue_seconds
                )

            engine = self._engine
            t0 = time.perf_counter()
            cached_plan = self.plan_cache.get_plan(plan_key, versions)
            plan_outcome = "hit" if cached_plan is not None else "miss"
            # One bind either way: plan() reuses the cached artifacts on
            # a hit and runs the planners only on a miss.
            prepared = engine.plan(query, cached_plan=cached_plan)
            if cached_plan is None:
                self.plan_cache.put_plan(
                    plan_key, versions, prepared[1], prepared[2]
                )
            t1 = time.perf_counter()
            if trace is not None:
                trace.add_timed("plan", t0, t1)
                trace.annotations.setdefault("plan_cache", plan_outcome)

            result = engine.evaluate(
                query, effective, materialize, prepared=prepared, limit=limit
            )
            exec_seconds = time.perf_counter() - t1
            # Cache only an answer whose predicates did not change
            # while it was computed (a write to any other predicate
            # cannot have touched it). Epoch first, versions second, so
            # the stamp is never newer than what it vouches for.
            epoch = self.store.epoch
            if self._versions(query) == versions:
                # Annotated once, here: every inline hit returns this
                # object as it is.
                self.result_cache.put_result(
                    result_key, epoch, versions,
                    self._annotate(result, "cached", "hit"),
                )
            outcome = "ok"
            self._record_latency(queue_seconds, t1 - t0, exec_seconds)
            return self._annotate(
                result, plan_outcome, "miss", queue_seconds=queue_seconds
            )
        except Exception as exc:
            if isinstance(exc, EvaluationTimeout):
                outcome = "timeout"
            raise
        finally:
            if token is not None:
                deactivate_trace(token)
            self._in_flight.dec()
            self._outcomes[outcome].inc()

    def _record_latency(self, queue: float, plan: float, exec_: float) -> None:
        """Observe one query's per-phase seconds, and their total."""
        stages = self._stages
        stages[0].observe(queue)
        stages[1].observe(plan)
        stages[2].observe(exec_)
        stages[3].observe(queue + plan + exec_)

    @staticmethod
    def _annotate(
        result: EngineResult,
        plan_outcome: str,
        result_outcome: str = "miss",
        queue_seconds: float = 0.0,
    ) -> EngineResult:
        """A shallow copy of ``result`` carrying service stats.

        The base object is never mutated. A miss, a coalesced follower
        and a hit that waited in the queue each get their own copy; the
        inline-hit result (``cached / hit / 0.0``) is built once per
        cache entry, shared by every caller it is served to, and must be
        treated as read-only.
        """
        service_stats = {
            "plan_cache": plan_outcome,
            "result_cache": result_outcome,
            "queue_seconds": queue_seconds,
        }
        return replace(result, stats={**result.stats, "service": service_stats})

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def source(self) -> dict:
        """Which durable snapshot is answering: ``{"path", "generation"}``,
        both ``None`` for a service built over an in-memory store."""
        if self.durable is not None:
            return {"path": self.durable.path, "generation": self.durable.generation}
        return dict(self._source)

    def snapshot(self) -> dict:
        """All service statistics as one JSON-compatible dict.

        The service's own counters are read back from :attr:`metrics`;
        ``queued``/``running`` alias the live gauges ``queue_depth`` and
        ``in_flight``. ``latency_seconds`` percentiles are bucket
        estimates since start, so ``samples == window_size == count``.
        """
        queued = int(self._queue_depth.value())
        running = int(self._in_flight.value())
        snap = {
            "queued": queued,
            "running": running,
            "queue_depth": queued,
            "in_flight": running,
            "completed": int(self._outcomes["ok"].value()),
            "timeouts": int(self._outcomes["timeout"].value()),
            "failures": int(self._outcomes["error"].value()),
            "result_cache_short_circuits": int(self._short_circuits.value()),
            "coalesced": int(self._coalesced.value()),
            "latency_seconds": {
                phase: self._latency_summary(phase) for phase in _PHASES
            },
            "plan_cache": self._cache_dict(self.plan_cache),
            "result_cache": self._cache_dict(self.result_cache),
            "epoch": self._epoch,
            "backend": self._backend_name,
            "max_workers": self.max_workers,
            "store_triples": self.store.num_triples,
            "catalog_refreshes": dict(self.store.catalog_refreshes),
            "read_only": self.read_only,
            "degraded": self._degraded(),
            "snapshot": self.source,
        }
        if self.durable is not None:
            snap["wal"] = self.durable.stats()
        return snap

    def _latency_summary(self, phase: str) -> dict:
        """One phase of ``repro_service_stage_seconds``, as ``/v1/stats`` shows it."""
        stages = self._stage_seconds
        count, total = stages.sample(phase)
        return {
            "count": float(count),
            "mean": total / count if count else 0.0,
            "p50": stages.quantile(0.50, phase),
            "p90": stages.quantile(0.90, phase),
            "p99": stages.quantile(0.99, phase),
            "window_size": float(count),
            "samples": float(count),
        }

    @staticmethod
    def _cache_dict(cache) -> dict:
        stats = cache.stats()
        data = stats._asdict()
        data["lookups"] = stats.lookups
        data["hit_rate"] = stats.hit_rate
        return data

    def __repr__(self) -> str:
        return (
            f"QueryService({self.store!r}, workers={self.max_workers}, "
            f"epoch={self._epoch})"
        )
