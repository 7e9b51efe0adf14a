"""Live service handoff inside HTTPQueryServer (swap + lease + drain).

The in-process half of the prefork handoff story: a swap installs a
new service for *future* requests while requests already admitted keep
their lease on the old one, and ``drain_service`` resolves only after
the last leased response has been fully serialized.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import Future

from repro.core.engine import WireframeEngine
from repro.graph.builder import GraphBuilder
from repro.query.parser import parse_query
from repro.server import serve_in_background
from repro.service import QueryService

from _http_client import make_client

SPARQL = "select ?a, ?b where { ?a knows ?b }"


def _store(n_edges: int):
    builder = GraphBuilder()
    for i in range(n_edges):
        builder.edge(f"p{i}", "knows", f"p{i + 1}")
    return builder.build(freeze=True)


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


def _on_loop(handle, coroutine):
    """Run a coroutine on the server's event loop from the test thread."""
    return asyncio.run_coroutine_threadsafe(coroutine, handle._loop)


def test_swap_changes_answers_for_subsequent_requests():
    with QueryService(_store(3)) as small, QueryService(_store(7)) as big:
        with serve_in_background(small) as handle:
            client = make_client(handle)
            try:
                _status, payload, _ = client.post(
                    "/v1/query", {"sparql": SPARQL}
                )
                assert payload["result"]["count"] == 3

                async def swap():
                    return handle.server.swap_service(big)

                old = _on_loop(handle, swap()).result(timeout=10)
                assert old is small
                _status, payload, _ = client.post(
                    "/v1/query", {"sparql": SPARQL}
                )
                assert payload["result"]["count"] == 7
                _status, stats, _ = client.get("/v1/stats")
                assert stats["http"]["service_swaps"] == 1
                assert stats["http"]["services_draining"] == 0
            finally:
                client.close()


def test_memoized_request_is_answered_from_the_new_service():
    """The request memo outlives a swap — it holds parsed requests, no
    data — while the rendered fragment lives in the old service's result
    cache and is simply never consulted again."""
    body = b'{"sparql": "select ?a, ?b where { ?a knows ?b }"}'
    with QueryService(_store(3)) as small, QueryService(_store(7)) as big:
        with serve_in_background(small) as handle:
            client = make_client(handle)
            try:
                before = [client.post_raw("/v1/query", body) for _ in range(3)]
                assert before[1] == before[2]  # memoized request + fragment

                async def swap():
                    return handle.server.swap_service(big)

                _on_loop(handle, swap()).result(timeout=10)
                after = [client.post_raw("/v1/query", body) for _ in range(3)]
                _status, stats, _ = client.get("/v1/stats")
            finally:
                client.close()
    counts = [json.loads(reply)["result"]["count"] for _, reply in before + after]
    assert counts == [3, 3, 3, 7, 7, 7]
    outcomes = [
        json.loads(reply)["result"]["stats"]["service"]["result_cache"]
        for _, reply in after
    ]
    assert outcomes == ["miss", "hit", "hit"]
    assert after[1] == after[2] != before[2]
    # Parsed once for all six; each service rendered its miss and its
    # entry's fragment, and reused the latter once.
    assert stats["http"]["request_memo"]["misses"] == 1
    assert stats["http"]["request_memo"]["hits"] == 5
    assert stats["http"]["result_fragments"] == {"rendered": 4, "reused": 2}


class ManualService:
    """The QueryService surface the server needs, resolved by hand."""

    def __init__(self, store):
        self.store = store
        self.epoch = 0
        self.durable = None
        self.futures: list[Future] = []
        self.submitted = threading.Event()

    def submit(self, query, deadline, materialize, trace=None, limit=None) -> Future:
        future: Future = Future()
        self.futures.append(future)
        self.submitted.set()
        return future

    def snapshot(self) -> dict:
        return {"queue_depth": 0, "in_flight": len(self.futures)}


def test_drain_waits_for_last_inflight_response(mini_yago):
    """The old service's lease is held until its response serializes.

    This is the mmap-safety property of the handoff: the swap happens
    immediately, but drain_service resolves only after the in-flight
    request admitted *before* the swap has rendered its body from the
    old service's store.
    """
    real = WireframeEngine(mini_yago).evaluate(
        parse_query("select ?a, ?b where { ?a created ?b }")
    )
    old_service = ManualService(mini_yago)
    new_service = ManualService(mini_yago)
    with serve_in_background(old_service) as handle:
        results: list = []
        client = make_client(handle)

        def post():
            try:
                results.append(
                    client.post(
                        "/v1/query",
                        {"sparql": "select ?a, ?b where { ?a created ?b }"},
                    )
                )
            finally:
                client.close()

        poster = threading.Thread(target=post)
        poster.start()
        _wait_for(lambda: len(old_service.futures) == 1)

        async def swap_and_drain():
            old = handle.server.swap_service(new_service)
            await handle.server.drain_service(old)
            return old

        drained = _on_loop(handle, swap_and_drain())
        time.sleep(0.1)
        # The in-flight request still leases the old service: not drained.
        assert not drained.done()
        assert handle.server.http_stats()["services_draining"] == 1

        # A request admitted after the swap goes to the new service and
        # never extends the old one's drain.
        second = make_client(handle)
        try:
            late: list = []
            late_poster = threading.Thread(
                target=lambda: late.append(
                    second.post(
                        "/v1/query",
                        {"sparql": "select ?a, ?b where { ?a created ?b }"},
                    )
                )
            )
            late_poster.start()
            _wait_for(lambda: len(new_service.futures) == 1)
            new_service.futures[0].set_result(real)
            late_poster.join(timeout=10)
            assert late[0][0] == 200

            assert not drained.done()
            old_service.futures[0].set_result(real)
            assert drained.result(timeout=10) is old_service
            poster.join(timeout=10)
            assert results[0][0] == 200
            assert handle.server.http_stats()["services_draining"] == 0
        finally:
            second.close()


def test_drain_of_idle_service_is_immediate(mini_yago):
    service = ManualService(mini_yago)
    with serve_in_background(service) as handle:

        async def drain():
            await handle.server.drain_service(service)
            return True

        assert _on_loop(handle, drain()).result(timeout=10) is True
