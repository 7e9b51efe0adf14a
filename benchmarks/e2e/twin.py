"""The in-process twin: one query operation as the calls it makes into
each layer, every call under its own span.

The program is measured from outside, so what a root operation spent
inside (an ``engine.evaluate`` call, a socket round trip) is priced by
pushing the same query through the public functions of ``repro.*`` the
program itself calls, in the same order, right after the root returns.
For the HTTP workloads the twin also holds a ``QueryService`` with the
server's configuration that is fed the identical operation sequence, so
its cache hits and misses are the server's.
"""

from __future__ import annotations

import asyncio
import json

from repro import (
    CardinalityEstimator,
    Edgifier,
    Triangulator,
    bind_query,
    generate_answer_graph,
    greedy_embedding_plan,
    is_acyclic,
    materialize_embeddings,
    parse_query,
    plan_signature,
    query_signature,
)
from repro.server.http import read_request, render_response
from repro.server.wire import API_VERSION, parse_json_body, parse_query_request

#: The server's defaults (``repro serve --limit`` / ``--max-body-kib``).
ROW_LIMIT = 100
MAX_BODY = 1 << 20


def raw_request(body: bytes, port: int) -> bytes:
    """The bytes ``http.client`` puts on the wire for one query."""
    head = (
        f"POST /v1/query HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
        f"Accept-Encoding: identity\r\nContent-Length: {len(body)}\r\n"
        f"Content-Type: application/json\r\n\r\n"
    )
    return head.encode("latin-1") + body


def _signatures(query):
    return query_signature(query), plan_signature(query)


class Twin:
    def __init__(self, tracer, store, service, owns_service: bool = True):
        self.tr = tracer
        self.store = store
        self.service = service
        self._owns_service = owns_service
        self.engine_runs: list[dict] = []
        self.response_bytes: list[int] = []
        self._epoch = None
        # read_request wants a StreamReader; with the whole request
        # already fed it never suspends, so no loop ever runs.
        self._loop = asyncio.new_event_loop()

    def close(self) -> None:
        self._loop.close()
        if self._owns_service:
            self.service.close()

    # -- planner + core ------------------------------------------------

    def engine(self, parent, query, on_path: bool = True) -> int:
        """Bind, plan, generate and defactorize ``query`` the way
        ``WireframeEngine.evaluate_detailed`` does; returns the count."""
        if self.store.epoch != self._epoch:
            estimator = CardinalityEstimator(self.store.catalog())
            self._edgifier = Edgifier(estimator)
            self._triangulator = Triangulator(estimator)
            self._epoch = self.store.epoch
        call = self.tr.call
        _, bound = call("query.bind", parent, bind_query, query, self.store,
                        on_path=on_path)
        _, ag_plan = call("planner.ag_plan", parent, self._edgifier.plan,
                          bound, on_path=on_path)
        # The engine skips the Triangulator for acyclic queries; it is
        # still priced here so the metric exists on every workload.
        cyclic = not is_acyclic(query)
        _, chords = call("planner.chordify", parent if cyclic else None,
                         self._triangulator.plan, bound,
                         on_path=on_path and cyclic)
        gen_id, (ag, stats) = call(
            "core.generation", parent,
            lambda: generate_answer_graph(bound, ag_plan, chordification=chords),
            on_path=on_path,
        )
        rows = []
        defac_id = None
        if not ag.empty:
            _, plan = call(
                "planner.embedding_plan", parent,
                lambda: greedy_embedding_plan(bound, *ag.relation_statistics()),
                on_path=on_path,
            )
            defac_id, rows = call("core.defactorize", parent,
                                  materialize_embeddings, ag, plan.order,
                                  on_path=on_path)
        spans = self.tr.spans
        self.engine_runs.append({
            "edge_walks": stats.edge_walks,
            "ag_edges": ag.size,
            "burned_nodes": stats.burned_nodes,
            "spurious_pairs": stats.spurious_pairs_removed,
            "rows": len(rows),
            "estimated_cost": ag_plan.estimated_cost,
            "generation_s": spans[gen_id]["end"] - spans[gen_id]["start"],
            "defactorize_s": (
                spans[defac_id]["end"] - spans[defac_id]["start"]
                if defac_id is not None else 0.0
            ),
        })
        return len(rows)

    # -- service -------------------------------------------------------

    def evaluate(self, parent, query, on_path: bool = True):
        """``QueryService.evaluate`` on the twin service; on a miss the
        engine stages are priced as its children."""
        sid, result = self.tr.call("service.evaluate", parent,
                                   self.service.evaluate, query,
                                   on_path=on_path)
        self.annotate_service(sid, result, query, on_path)
        return result

    def annotate_service(self, sid, result, query, on_path: bool = True):
        cache = result.stats["service"]["result_cache"]
        self.tr.spans[sid]["cache"] = cache
        self.tr.call("service.signature", sid, _signatures, query,
                     on_path=on_path)
        if cache == "miss":
            self.engine(sid, query, on_path)

    # -- server --------------------------------------------------------

    def transport_in(self, parent, request: bytes, on_path: bool = True):
        reader = asyncio.StreamReader(limit=MAX_BODY, loop=self._loop)
        reader.feed_data(request)
        reader.feed_eof()

        def read():
            try:
                read_request(reader, MAX_BODY).send(None)
            except StopIteration as done:
                return done.value
            raise RuntimeError("read_request suspended on a complete request")

        call = self.tr.call
        _, req = call("server.http_parse", parent, read, on_path=on_path)
        wid, parsed = call(
            "server.wire_parse", parent,
            lambda: parse_query_request(parse_json_body(req.body),
                                        default_limit=ROW_LIMIT),
            on_path=on_path,
        )
        text = json.loads(req.body)["sparql"]
        call("query.parse", wid, parse_query, text, on_path=on_path)
        return parsed.query

    def transport_out(self, parent, query, result, on_path: bool = True):
        """Build the response the server would send."""

        def serialize():
            payload = {
                "api_version": API_VERSION,
                "query": query.name,
                "columns": [v.name for v in query.projection],
                "result": result.to_dict(self.service.store.dictionary,
                                         limit=ROW_LIMIT),
            }
            return render_response(200, json.dumps(payload).encode("utf-8"),
                                   trace_id="0" * 16)

        _, wire = self.tr.call("server.serialize", parent, serialize,
                               on_path=on_path)
        self.response_bytes.append(len(wire))
