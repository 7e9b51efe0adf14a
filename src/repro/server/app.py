"""The asyncio HTTP front end over :class:`~repro.service.QueryService`.

:class:`HTTPQueryServer` binds the versioned JSON wire API
(:mod:`repro.server.wire`) to a running service:

* ``POST /v1/query``  — evaluate one conjunctive query;
* ``POST /v1/batch``  — evaluate many, order-preserving, per-query
  error isolation;
* ``GET  /v1/health`` — a *deep* probe (one dictionary decode + one
  point lookup through the live service, so a worker serving a broken
  mmap fails it); 503 while draining or unhealthy, 200 with
  ``status: "degraded"`` while the WAL is read-only degraded — reads
  still serve, so the instance stays in rotation;
* ``GET  /v1/stats``  — the service snapshot (cache hit rates, latency
  percentiles, queue depth, in-flight count) plus HTTP-level gauges.

The event loop only parses and routes; evaluation runs on the
service's thread pool and is awaited through
:func:`asyncio.wrap_future`, so slow queries never stall the accept
loop. **A repeated request costs what a cache hit is**: the validated
request document is remembered under its body bytes (a bounded LRU,
see :meth:`HTTPQueryServer._parsed`), a result-cache hit comes back
from :meth:`QueryService.submit` as a completed future and is taken
without a loop round trip, and the entry's shared
:class:`~repro.engine_api.EngineResult` keeps its own JSON rendering,
so the response body is a pre-rendered head, that fragment and a brace
— byte for byte what ``json.dumps`` of the whole payload would give.
The fragment has no validity rule of its own: it is dropped with the
result-cache entry that owns it. **Backpressure** is a bounded
admission count: once ``max_pending`` queries are in flight HTTP-side,
further submissions are shed immediately with ``503`` + ``Retry-After``
instead of building an unbounded queue. **Deadlines** start at
admission — the ``X-Repro-Timeout`` header (or the
``timeout_seconds`` body field) becomes a running :class:`~repro.utils.deadline.Deadline`, so time
spent queued counts against the client's budget exactly as it does
for in-process callers. **Graceful shutdown** stops accepting, answers
new requests with ``503 draining``, waits for every in-flight request
to finish, then closes.

The server also supports **live service handoff** (the prefork
snapshot-swap path): every request captures the service it was
admitted against and holds a *lease* on it until its response body is
fully serialized, so :meth:`HTTPQueryServer.swap_service` can install
a service over a new snapshot generation between requests and
:meth:`HTTPQueryServer.drain_service` tells the caller exactly when
the last in-flight :class:`~repro.engine_api.EngineResult` on the old
generation has been rendered — the moment the old mmap is safe to
close. Requests never block on a swap and none are dropped.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import sys
import time
from collections import deque

from repro.errors import ReproError
from repro.obs.exposition import CONTENT_TYPE, render_registries
from repro.obs.logging import JsonLogger, SlowQueryLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    Trace,
    TraceBuffer,
)
from repro.service.caches import LRUCache
from repro.service.query_service import QueryService
from repro.server.http import (
    HttpError,
    LoopThread,
    Request,
    read_request,
    render_response,
    serve_until,
)
from repro.server.wire import (
    API_VERSION,
    WireError,
    error_payload,
    map_exception,
    parse_batch_request,
    parse_header_timeout,
    parse_json_body,
    parse_query_request,
)
from repro.utils import domains
from repro.utils.deadline import Deadline

#: Default cap on rows per response — built by phase 2, cached and
#: decoded; clients raise it per request with the ``limit`` field (the
#: count is always exact).
DEFAULT_ROW_LIMIT = 100

#: Default request-body cap (1 MiB holds ~thousands of wire queries).
DEFAULT_MAX_BODY_BYTES = 1 << 20

#: Bounds of the request memo: how many validated request documents are
#: remembered, and the largest body that is (a bigger one is parsed on
#: every arrival). Together they cap what the memo can pin at 8 MiB of
#: request bytes.
REQUEST_MEMO_ENTRIES = 1024
REQUEST_MEMO_MAX_BODY_BYTES = 8 * 1024

#: The ``Retry-After`` hint of a shed response while no drain rate has
#: been measured yet (see :meth:`HTTPQueryServer.retry_after`).
RETRY_AFTER_SECONDS = 1


def _head(query, **envelope) -> bytes:
    """A response object for ``query``, open for its ``"result"``.

    ``json.dumps`` of a dict is the concatenation of its members'
    renderings, so ``_head(q) + json.dumps(r) + b"}"`` is byte for byte
    ``json.dumps({"query": ..., "columns": ..., "result": r})``.
    """
    fields = {
        **envelope,
        "query": query.name,
        "columns": [v.name for v in query.projection],
    }
    return (json.dumps(fields)[:-1] + ', "result": ').encode("utf-8")


def _query_head(parsed) -> bytes:
    """Everything of a ``/v1/query`` response body before the result."""
    return _head(parsed.query, api_version=API_VERSION)


def _batch_heads(parsed) -> list[bytes]:
    """The same for each entry of a ``/v1/batch`` response."""
    return [_head(req.query) for req in parsed]


_BATCH_OPEN = (
    json.dumps({"api_version": API_VERSION})[:-1] + ', "results": ['
).encode("utf-8")


class _Response:
    """One rendered application response (status + body + headers).

    Most endpoints pass a JSON ``payload``; ``/metrics`` passes raw
    ``body`` bytes with its own ``content_type``.
    """

    __slots__ = ("status", "body", "extra_headers", "content_type",
                 "trace_id")

    def __init__(self, status: int, payload: dict | None = None,
                 extra_headers: dict | None = None, *,
                 body: bytes | None = None,
                 content_type: str = "application/json"):
        self.status = status
        self.body = (
            json.dumps(payload).encode("utf-8") if body is None else body
        )
        self.extra_headers = extra_headers
        self.content_type = content_type
        # Echoed as X-Repro-Trace-Id by render_response. A dedicated
        # slot instead of an extra_headers dict: the dispatcher stamps
        # it on every traced request, so it must cost one store.
        self.trace_id: "str | None" = None


class HTTPQueryServer:
    """Serve the ``/v1`` JSON query API over one :class:`QueryService`.

    Parameters
    ----------
    service:
        The query service to serve. The server never closes it — the
        owner that constructed it does (or use :func:`serve`, which
        manages both).
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (the bound
        address is available as :attr:`address` after :meth:`start`).
    max_pending:
        Admission bound: the maximum number of queries in flight
        HTTP-side (a batch counts as its length). Submissions beyond
        it are shed with ``503`` + ``Retry-After``.
    max_body_bytes:
        Request-body cap; larger uploads are refused with ``413``.
    default_timeout:
        Deadline budget, in seconds, applied to requests that carry
        neither the header nor the body field.
    default_row_limit:
        Decoded-row cap applied when a request does not set ``limit``.
    extra_stats:
        Optional zero-argument callable returning a dict merged into
        the ``/v1/stats`` payload (the prefork worker adds its
        ``worker`` gauges — id, generation, rss — through this).
    observability:
        Per-request instrumentation: when true (the default) every
        ``/v1/query``/``/v1/batch`` request gets a trace (minted, or
        adopted from ``X-Repro-Trace-Id``), its id is echoed in the
        response header, and request counters/latency histograms are
        recorded. ``GET /metrics`` serves either way. The last 256
        finished traces are kept (:attr:`traces`).
    slow_query_seconds:
        When set, requests slower than this emit a structured
        slow-query record (trace id, query signature, backend, plan
        shape, stage breakdown) through ``logger``.
    logger:
        A :class:`repro.obs.logging.JsonLogger` for lifecycle events
        (drain, service swap) and slow-query records; ``None`` disables
        lifecycle logging (slow queries then log to stderr).
    """

    def __init__(
        self,
        service: QueryService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = 64,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        default_timeout: float = 300.0,
        default_row_limit: int | None = DEFAULT_ROW_LIMIT,
        extra_stats=None,
        observability: bool = True,
        slow_query_seconds: float | None = None,
        logger=None,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.max_pending = domains.positive(max_pending, "max_pending")
        self.max_body_bytes = max_body_bytes
        self.default_timeout = domains.seconds(default_timeout, "default_timeout")
        self.default_row_limit = default_row_limit
        self.extra_stats = extra_stats
        self.observability = observability
        self.logger = logger
        self.traces = TraceBuffer()
        # The trace _dispatch hands to the handler it is about to run;
        # see _dispatch for why a shared attribute is race-free here.
        self._active_trace: Trace | None = None
        self.slow_queries = None
        if slow_query_seconds is not None:
            # The backend never changes for a running server, so it is
            # bound onto the slow log's logger once instead of being
            # annotated onto every trace.
            self.slow_queries = SlowQueryLog(
                slow_query_seconds,
                (logger or JsonLogger()).bind(
                    backend=service.store.backend_name
                ),
            )
        self._server: asyncio.AbstractServer | None = None
        self._in_flight = 0
        self._shed = 0
        self._requests = 0
        # Recent (monotonic time, slots released) completions — the
        # drain-rate sample the computed Retry-After hint reads.
        # Event-loop thread only, like the admission counters.
        self._recent_releases: deque = deque(maxlen=512)
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        # Live-handoff bookkeeping (event-loop thread only, no locks):
        # per-service lease counts plus the waiters drain_service parks.
        self._leases: dict[int, int] = {}
        self._drain_events: dict[int, asyncio.Event] = {}
        self._swaps = 0
        self.metrics = MetricsRegistry()
        # The request counter is a plain dict bumped on the event-loop
        # thread (no other thread writes it) and exposed through a
        # scrape-time callback: one dict store per request instead of a
        # locked counter update. Keys carry the raw int status; it is
        # stringified here, at scrape time, never on the request path.
        self._request_counts: dict[tuple[str, int], int] = {}
        self.metrics.callback(
            "repro_http_requests_total",
            "HTTP requests served, by route and status.",
            lambda: {
                (route, str(status)): n
                for (route, status), n in self._request_counts.items()
            },
            kind="counter",
            labelnames=("route", "status"),
        )
        self._request_seconds = self.metrics.histogram(
            "repro_http_request_seconds",
            "End-to-end HTTP request latency (admission to rendered "
            "response), by route.",
            labelnames=("route",),
            # Observed only from the event loop, which also serves
            # /metrics scrapes — no lock needed.
            locked=False,
        )
        # Bound histogram children, resolved once per route.
        self._request_seconds_by_route = {
            route: self._request_seconds.labels(route)
            for route in (*self._ROUTES, "other")
        }
        self.metrics.callback(
            "repro_http_in_flight",
            "Queries currently admitted HTTP-side.",
            lambda: self._in_flight,
        )
        self.metrics.callback(
            "repro_http_shed_total",
            "Submissions shed with 503 by the admission bound.",
            lambda: self._shed,
            kind="counter",
        )
        self.metrics.callback(
            "repro_http_draining",
            "Whether this server is draining (1) or accepting (0).",
            lambda: int(self._draining),
            aggregation="max",
        )
        self.metrics.callback(
            "repro_http_service_swaps_total",
            "Live service handoffs (snapshot swaps) performed.",
            lambda: self._swaps,
            kind="counter",
        )
        # The hit path's two memos, observed the same way (event-loop
        # thread only): validated request documents by their bytes, and
        # how often a response embedded a result's kept rendering
        # instead of rendering it.
        self._request_memo = LRUCache(REQUEST_MEMO_ENTRIES)
        self._fragment_renders = 0
        self._fragment_reuses = 0

        def memo_lookups() -> dict:
            stats = self._request_memo.stats()
            return {("hit",): stats.hits, ("miss",): stats.misses}

        self.metrics.callback(
            "repro_http_request_memo_lookups_total",
            "Request bodies looked up in the parsed-request memo, by "
            "outcome (bodies above the memo's size cap are not looked up).",
            memo_lookups,
            kind="counter",
            labelnames=("outcome",),
        )
        self.metrics.callback(
            "repro_http_request_memo_size",
            "Validated request documents currently memoized.",
            lambda: len(self._request_memo),
        )
        self.metrics.callback(
            "repro_cache_result_fragments_total",
            "Result objects embedded in responses: rendered (decoded "
            "and JSON-encoded) or reused from the result-cache entry.",
            lambda: {
                ("rendered",): self._fragment_renders,
                ("reused",): self._fragment_reuses,
            },
            kind="counter",
            labelnames=("outcome",),
        )
        self.metrics.callback(
            "repro_http_traces_buffered",
            "Finished traces retained in the ring buffer.",
            lambda: len(self.traces),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None:
            return (self.host, self.port)
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return (host, port)

    async def start(self, sock=None) -> tuple[str, int]:
        """Bind and start accepting connections; returns the address.

        ``sock`` — an already-bound, listening socket — overrides
        ``host``/``port``: the prefork path, where the dispatcher binds
        once and every worker accepts from the same kernel queue.
        """
        if sock is not None:
            sock.setblocking(False)
            self._server = await asyncio.start_server(
                self._on_connection, sock=sock
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection, self.host, self.port
            )
        if self.logger is not None:
            host, port = self.address
            self.logger.log(
                "server_start",
                host=host,
                port=port,
                backend=self.service.store.backend_name,
            )
        return self.address

    async def shutdown(self) -> None:
        """Graceful shutdown: drain in-flight requests, then stop.

        New work arriving on kept-alive connections while draining is
        answered ``503 draining``; requests already admitted run to
        completion and get their full responses.
        """
        self._draining = True
        if self.logger is not None:
            self.logger.log("server_drain", in_flight=self._in_flight)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._idle.wait()
        if self.logger is not None:
            self.logger.log("server_stop", requests=self._requests)

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------

    def _admit(self, n: int) -> None:
        """Reserve ``n`` in-flight slots or raise the shed/drain error."""
        if self._draining:
            raise WireError(
                "draining", "server is shutting down", status=503
            )
        if self._in_flight + n > self.max_pending:
            self._shed += 1
            raise WireError(
                "overloaded",
                f"{self._in_flight} queries in flight (limit "
                f"{self.max_pending}); retry shortly",
                status=503,
            )
        self._in_flight += n
        self._idle.clear()

    def _release(self, n: int) -> None:
        self._in_flight -= n
        self._recent_releases.append((time.monotonic(), n))
        if self._in_flight == 0:
            self._idle.set()

    #: How far back the drain-rate estimate looks (seconds).
    _DRAIN_WINDOW_SECONDS = 10.0

    def retry_after(self) -> int:
        """Seconds a shed client should wait, from the live drain rate.

        Estimates how long the *current* in-flight load needs to drain:
        slots released over the last :attr:`_DRAIN_WINDOW_SECONDS` give
        a completion rate, and ``in_flight / rate`` is the expected
        wait for a slot. Falls back to :data:`RETRY_AFTER_SECONDS` when
        nothing has completed recently (cold start, or a fully stalled
        service — where a conservative fixed hint beats dividing by
        zero). Clamped to [1, 30] so a burst of slow queries can never
        tell clients to go away for minutes.
        """
        now = time.monotonic()
        horizon = now - self._DRAIN_WINDOW_SECONDS
        oldest = None
        total = 0
        for stamp, n in self._recent_releases:
            if stamp < horizon:
                continue
            if oldest is None:
                oldest = stamp
            total += n
        estimate = float(RETRY_AFTER_SECONDS)
        if total > 0 and oldest is not None:
            elapsed = max(now - oldest, 0.05)
            rate = total / elapsed
            if rate > 0:
                estimate = self._in_flight / rate
        return max(1, min(30, math.ceil(estimate)))

    # ------------------------------------------------------------------
    # Live service handoff (snapshot swap)
    # ------------------------------------------------------------------

    def _lease(self, service: QueryService) -> QueryService:
        """Pin ``service`` for one request (event-loop thread only)."""
        key = id(service)
        self._leases[key] = self._leases.get(key, 0) + 1
        return service

    def _unlease(self, service: QueryService) -> None:
        key = id(service)
        remaining = self._leases.get(key, 0) - 1
        if remaining > 0:
            self._leases[key] = remaining
            return
        self._leases.pop(key, None)
        event = self._drain_events.pop(key, None)
        if event is not None:
            event.set()

    def swap_service(self, service: QueryService) -> QueryService:
        """Install a new service; returns the one it replaces.

        Requests admitted before the swap keep running — and serialize
        their responses — against the old service; requests admitted
        after it see only the new one. The caller still owns the old
        service: :meth:`drain_service` it, then close it.
        """
        old, self.service = self.service, service
        self._swaps += 1
        if self.logger is not None:
            self.logger.log(
                "service_swap",
                swaps=self._swaps,
                epoch=service.epoch,
                generation=service.source["generation"],
            )
        return old

    async def drain_service(self, service: QueryService) -> None:
        """Wait until no in-flight request holds a lease on ``service``.

        Returns once the last response computed against it has been
        fully serialized — the point where its mmap (and thread pool)
        can be closed without yanking memory out from under a reader.
        """
        if self._leases.get(id(service), 0) == 0:
            return
        event = self._drain_events.setdefault(id(service), asyncio.Event())
        await event.wait()

    def http_stats(self) -> dict:
        """HTTP-level gauges and counters (the ``/v1/stats`` ``http`` key)."""
        memo = self._request_memo.stats()
        return {
            "in_flight": self._in_flight,
            "max_pending": self.max_pending,
            "requests": self._requests,
            "shed": self._shed,
            "draining": self._draining,
            "service_swaps": self._swaps,
            "services_draining": len(self._drain_events),
            "traces_buffered": len(self.traces),
            "recent_trace_ids": self.traces.recent_ids(8),
            "request_memo": {
                "hits": memo.hits,
                "misses": memo.misses,
                "size": memo.size,
                "maxsize": memo.maxsize,
            },
            "result_fragments": {
                "rendered": self._fragment_renders,
                "reused": self._fragment_reuses,
            },
        }

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve requests on one connection until close/drain/error."""
        try:
            while True:
                try:
                    request = await read_request(reader, self.max_body_bytes)
                except HttpError as exc:
                    status, code, message = map_exception(exc)
                    writer.write(
                        render_response(
                            status,
                            json.dumps(error_payload(code, message)).encode(),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                self._requests += 1
                response = await self._dispatch(request)
                keep_alive = request.keep_alive and not self._draining
                writer.write(
                    render_response(
                        response.status,
                        response.body,
                        content_type=response.content_type,
                        keep_alive=keep_alive,
                        extra_headers=response.extra_headers,
                        trace_id=response.trace_id,
                    )
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError: the loop is tearing down (asyncio.run
                # cancels lingering tasks); the socket is gone either way.
                pass

    #: Routes that get their own metric label; everything else folds
    #: into "other" so scrape cardinality stays bounded.
    _ROUTES = ("/v1/query", "/v1/batch", "/v1/health", "/v1/stats", "/metrics")

    async def _dispatch(self, request: Request) -> _Response:
        """Instrument one request around :meth:`_route`.

        With observability on, every ``/v1/query``/``/v1/batch`` request
        carries a :class:`Trace` — minted here at admission, or adopted
        from a well-formed ``X-Repro-Trace-Id`` header — handed to the
        handler through ``self._active_trace`` (the handler passes it
        on to ``QueryService.submit`` explicitly, and the service
        re-activates it on its worker thread for the engine's
        contextvar hooks). The trace id is echoed back in the
        response's ``X-Repro-Trace-Id`` on every outcome, including
        errors and shed requests.
        """
        if not self.observability:
            return await self._route(request)
        if request.method == "POST" and request.path in ("/v1/query", "/v1/batch"):
            trace = Trace(request.headers.get("x-repro-trace-id"))
            trace.route = request.path
            # The trace's own birth timestamp doubles as the request
            # start: one clock read instead of two.
            started = trace._t0
        else:
            trace = None
            started = time.perf_counter()
        # Hand the trace to the handler via a plain attribute rather
        # than the contextvar (~5x cheaper per request). Safe despite
        # being shared across connections: _route and each handler's
        # trace read run synchronously in this task step — no await
        # sits between this store and the read — so another request
        # cannot interleave. The None store keeps a stale trace from
        # leaking into non-traced requests.
        self._active_trace = trace
        response = await self._route(request)
        ended = time.perf_counter()
        label = request.path if request.path in self._ROUTES else "other"
        counts = self._request_counts
        key = (label, response.status)
        counts[key] = counts.get(key, 0) + 1
        self._request_seconds_by_route[label].observe(ended - started)
        if trace is not None:
            # Seal the trace inline: stamp the duration, buffer it,
            # echo its id, and only then consider the slow-query log.
            mark = trace._mark
            if mark is not None:
                trace.spans.append(("serialize", mark - started,
                                    ended - mark, False))
            if trace.duration is None:
                trace.duration = ended - started
            trace.status = response.status
            self.traces.record(trace)
            response.trace_id = trace.trace_id
            slow = self.slow_queries
            if slow is not None and trace.duration >= slow.threshold_seconds:
                self._slow_log(trace)
        return response

    def _slow_log(self, trace: Trace) -> None:
        """Enrich and emit one slow trace (off the per-request hot path).

        The query name and signature digest are derived here, for the
        rare slow request only — the handler parks the parsed query on
        the trace as a private annotation and pays nothing else.
        """
        query = getattr(trace, "_query", None)
        if query is not None:
            if query.name:
                trace.annotations.setdefault("query", query.name)
            try:
                from repro.service.signature import query_signature

                trace.annotations["query_signature"] = hashlib.sha1(
                    repr(query_signature(query)).encode()
                ).hexdigest()[:16]
            except Exception:  # noqa: BLE001 — logging must not fail
                pass
        self.slow_queries.observe(trace)

    async def _route(self, request: Request) -> _Response:
        """Route one request; every failure becomes the JSON envelope."""
        try:
            route = (request.method, request.path)
            if route == ("POST", "/v1/query"):
                return await self._handle_query(request)
            if route == ("POST", "/v1/batch"):
                return await self._handle_batch(request)
            if route == ("GET", "/v1/health"):
                return self._handle_health()
            if route == ("GET", "/v1/stats"):
                return self._handle_stats()
            if route == ("GET", "/metrics"):
                return self._handle_metrics()
            if request.path in ("/v1/query", "/v1/batch", "/v1/health",
                                "/v1/stats", "/metrics"):
                return _Response(
                    405,
                    error_payload(
                        "method_not_allowed",
                        f"{request.method} is not supported on {request.path}",
                    ),
                )
            return _Response(
                404,
                error_payload(
                    "not_found",
                    f"no such endpoint: {request.path} (this build serves "
                    f"/{API_VERSION}/query, /{API_VERSION}/batch, "
                    f"/{API_VERSION}/health, /{API_VERSION}/stats, "
                    f"/metrics)",
                ),
            )
        except Exception as exc:  # noqa: BLE001 — single wire mapping
            status, code, message = map_exception(exc)
            if status == 500:
                print(f"repro.server: {message}", file=sys.stderr)
            extra = None
            if status == 503:
                extra = {"Retry-After": str(self.retry_after())}
            return _Response(status, error_payload(code, message), extra)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def _deadline_for(self, timeout_seconds: float | None) -> Deadline:
        """A *running* deadline for one admitted query.

        Constructed at admission so that time spent queued — in the
        service pool or behind the event loop — counts against the
        client's budget, mirroring in-process ``Deadline`` semantics.
        """
        return Deadline(
            timeout_seconds if timeout_seconds is not None else self.default_timeout
        )

    def _parsed(self, request: Request, parse, heads, trace) -> tuple:
        """The validated document of ``request`` and its response head(s).

        Parsing is a pure function of the body bytes, the
        ``X-Repro-Timeout`` value and ``default_row_limit``, and what it
        returns is immutable, so the outcome is remembered under exactly
        those bytes: a repeated request costs one dict probe, and its
        shared :class:`~repro.query.model.ConjunctiveQuery` carries its
        signatures with it. Nothing here depends on the service or its
        data, so there is nothing to invalidate, across a swap either.
        A request that raises is never stored — it is parsed, and
        refused, again each time.

        Either way this is the trace's ``parse`` span. It is timed
        inline rather than through the span() context manager (this runs
        on every traced request, and the with-block costs about a
        microsecond more) and starts at the trace's own birth (offset
        0.0), so it also covers admission and routing and the stage sum
        stays tight against end-to-end latency.
        """
        try:
            body = request.body
            timeout = request.headers.get("x-repro-timeout")
            memoize = len(body) <= REQUEST_MEMO_MAX_BODY_BYTES
            if memoize:
                key = (request.path, body, timeout)
                entry = self._request_memo.get(key)
                if entry is not None:
                    return entry
            parsed = parse(
                parse_json_body(body),
                header_timeout=parse_header_timeout(timeout),
                default_limit=self.default_row_limit,
            )
            entry = (parsed, heads(parsed))
            if memoize:
                self._request_memo.put(key, entry)
            return entry
        finally:
            if trace is not None:
                trace.spans.append(
                    ("parse", 0.0, time.perf_counter() - trace._t0, False)
                )

    def _result_json(self, service, result, limit) -> bytes:
        """``result`` as the JSON object a response embeds.

        A result-cache hit hands every caller the cache entry's own
        result object, which keeps its last rendering: the bytes live
        and die with the entry, under the entry's validity rule.
        """
        dictionary = service.store.dictionary
        fragment = result.memoized_json(dictionary, limit)
        if fragment is not None:
            self._fragment_reuses += 1
            return fragment
        self._fragment_renders += 1
        return result.to_json(dictionary, limit)

    @staticmethod
    def _trace_member(trace: "Trace | None") -> bytes:
        """The ``"trace"`` member ``include_trace`` appends to a body.

        Echoes whatever is recorded so far; the trace is sealed
        (duration stamped, ring-buffered) after serialization.
        """
        doc = trace.to_dict() if trace is not None else None
        return b', "trace": ' + json.dumps(doc).encode("utf-8")

    async def _handle_query(self, request: Request) -> _Response:
        # Must be the first statement: _dispatch's attribute store is
        # only safe to read before this coroutine first suspends.
        trace = self._active_trace
        parsed, head = self._parsed(
            request, parse_query_request, _query_head, trace
        )
        if trace is not None:
            trace._query = parsed.query
        self._admit(1)
        # Capture the service once: a swap between the await and the
        # serialization below must not mix generations, and the lease
        # keeps the captured one alive until the body is rendered.
        service = self._lease(self.service)
        try:
            deadline = self._deadline_for(parsed.timeout_seconds)
            future = service.submit(
                parsed.query, deadline, parsed.materialize, trace=trace,
                limit=parsed.limit,
            )
            # A result-cache hit comes back already completed: take it
            # here instead of paying a loop round trip to be told so.
            awaited = not future.done()
            result = (
                await asyncio.wrap_future(future) if awaited
                else future.result()
            )
            if trace is not None:
                # A reference, not a copy: the slow-query log derives
                # the plan shape from this lazily, for the rare slow
                # request only. The mark becomes the "serialize" span
                # when the dispatcher seals the trace.
                trace._stats = result.stats
                trace._mark = mark = time.perf_counter()
                if awaited:
                    # From the worker's last stage to this line: the
                    # answer graph's teardown, the result-cache store
                    # and the thread-to-loop wake-up (for a coalesced
                    # follower, the wait on its leader).
                    trace.add_since_last("resume", mark)
            return _Response(200, body=b"".join((
                head,
                self._result_json(service, result, parsed.limit),
                self._trace_member(trace) if parsed.include_trace else b"",
                b"}",
            )))
        finally:
            self._unlease(service)
            self._release(1)

    async def _handle_batch(self, request: Request) -> _Response:
        # One trace covers the whole batch: per-query engine spans land
        # on it from concurrent workers (appends are atomic), so stage
        # spans may overlap — the span-sum invariant holds only for
        # single-query requests. Read before the first suspension, like
        # _handle_query.
        trace = self._active_trace
        parsed, heads = self._parsed(
            request, parse_batch_request, _batch_heads, trace
        )
        if trace is not None:
            trace.annotations["queries"] = len(parsed)
        self._admit(len(parsed))
        service = self._lease(self.service)
        try:
            futures = [
                service.submit(
                    req.query,
                    self._deadline_for(req.timeout_seconds),
                    req.materialize,
                    trace=trace,
                    limit=req.limit,
                )
                for req in parsed
            ]
            entries = []
            for req, head, future in zip(parsed, heads, futures):
                try:
                    result = (
                        future.result() if future.done()
                        else await asyncio.wrap_future(future)
                    )
                except ReproError as exc:
                    # Same per-query isolation as evaluate_many(
                    # return_exceptions=True): one bad query marks its
                    # slot, the rest of the batch still answers.
                    _status, code, message = map_exception(exc)
                    entries.append(json.dumps({
                        "query": req.query.name,
                        "error": {"code": code, "message": message},
                    }).encode("utf-8"))
                else:
                    entries.append(b"".join((
                        head,
                        self._result_json(service, result, req.limit),
                        b"}",
                    )))
            return _Response(200, body=b"".join((
                _BATCH_OPEN,
                b", ".join(entries),
                b"]",
                self._trace_member(trace) if parsed[0].include_trace else b"",
                b"}",
            )))
        finally:
            self._unlease(service)
            self._release(len(parsed))

    @staticmethod
    def _deep_probe(service: QueryService) -> dict:
        """One dictionary decode plus one point lookup, end to end.

        The difference between "the process answers" and "the data is
        readable": a worker serving a broken mmap (payload deleted and
        recreated corrupt, bad page, truncated segment) passes a
        drain-state check but fails here, so load balancers rotate it
        out. Deliberately tiny — one term decoded out of the (possibly
        mapped) dictionary and one index lookup touching segment
        memory — so health stays cheap to poll.
        """
        try:
            store = service.store
            dictionary = store.dictionary
            n = len(dictionary)
            if n:
                term = dictionary.decode(0)
                if not isinstance(term, str):
                    raise TypeError(
                        f"dictionary decode returned {type(term).__name__}"
                    )
            predicates = store.predicates()
            if predicates:
                p = predicates[0]
                edge = next(store.edges(p), None)
                if edge is not None:
                    # The point lookup: resolve one (p, s) through the
                    # live predicate-first index.
                    store.successors(p, edge[0])
        except Exception as exc:  # noqa: BLE001 — any failure is unhealthy
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        return {"ok": True}

    def _handle_health(self) -> _Response:
        # One capture: health must describe a single service, not mix
        # fields across a concurrent swap.
        service = self.service
        store = service.store
        probe = self._deep_probe(service)
        # Health polling doubles as the degraded-mode recovery
        # heartbeat: while the WAL cannot append, each (rate-limited)
        # poll re-probes for space. Cheap no-op on healthy services.
        durable = service.durable
        if durable is not None:
            durable.maybe_probe()
        degraded = durable is not None and durable.degraded
        if self._draining:
            status, state = 503, "draining"
        elif not probe["ok"]:
            status, state = 503, "unhealthy"
        elif degraded:
            # Reads keep serving (200 — stay in rotation); writes are
            # refused with 503 "degraded" per request.
            status, state = 200, "degraded"
        else:
            status, state = 200, "ok"
        payload = {
            "api_version": API_VERSION,
            "status": state,
            "backend": store.backend_name,
            "triples": store.num_triples,
            "epoch": service.epoch,
            "degraded": degraded,
            "probe": probe,
        }
        return _Response(status, payload)

    def _handle_stats(self) -> _Response:
        payload = {
            "api_version": API_VERSION,
            "service": self.service.snapshot(),
            "http": self.http_stats(),
        }
        if self.extra_stats is not None:
            payload.update(self.extra_stats())
        return _Response(200, payload)

    def _handle_metrics(self) -> _Response:
        """Prometheus text exposition over both registries.

        The server's own registry (``repro_http_*``, plus the one
        ``repro_cache_result_fragments_total`` it counts itself) and the
        current service's (``repro_service_*``, ``repro_cache_*``,
        ``repro_wal_*``, ...) render as one document; no family name
        appears in both.
        """
        text = render_registries(self.metrics, self.service.metrics)
        return _Response(
            200, body=text.encode("utf-8"), content_type=CONTENT_TYPE
        )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def serve(
    service: QueryService,
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    on_ready=None,
    **server_kwargs,
) -> None:
    """Run the HTTP front end until SIGINT/SIGTERM; then drain and exit.

    The blocking entry point behind ``repro serve`` and
    ``examples/http_server.py``; its event loop runs on the calling
    thread. ``on_ready`` (if given) is called with the bound
    ``(host, port)`` once the socket is listening. Shutdown is always
    graceful: in-flight requests finish before the process returns.
    """
    import signal

    server = HTTPQueryServer(service, host=host, port=port, **server_kwargs)

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover — non-POSIX
                pass
        await serve_until(stop, server.start, server.shutdown, on_ready)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover — non-POSIX fallback
        pass


class ServerHandle(LoopThread):
    """A server running on a background thread (tests, benchmarks).

    Use as a context manager or call :meth:`shutdown` explicitly; both
    perform the same graceful drain as a signal-triggered shutdown.
    """

    def __init__(self, server: HTTPQueryServer):
        self.server = server
        super().__init__(server.start, server.shutdown, name="repro-http")

    @property
    def url(self) -> str:
        """Base URL of the running server, e.g. ``http://127.0.0.1:8123``."""
        host, port = self.address
        return f"http://{host}:{port}"


def serve_in_background(
    service: QueryService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    **server_kwargs,
) -> ServerHandle:
    """Start a server on its own thread and return a :class:`ServerHandle`.

    The thread owns its own event loop; the handle's
    :meth:`~ServerHandle.shutdown` triggers the same graceful drain as
    a signal would. The default ``port=0`` binds an ephemeral port, so
    parallel test sessions never collide.
    """
    return ServerHandle(
        HTTPQueryServer(service, host=host, port=port, **server_kwargs)
    )
