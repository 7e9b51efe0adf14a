"""What a repeated request may still do, counted — never timed.

A result-cache hit over HTTP is a probe of the request memo, the
service's version check and a join of bytes the result-cache entry
already carries. These tests patch the three things a hit used to pay
for — the SPARQL parse, ``EngineResult.to_dict`` and the
``asyncio.wrap_future`` loop hop — with counters, and pin the caps that
keep the two memos bounded.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro.server.wire as wire
from repro.engine_api import MAX_MEMOIZED_JSON_BYTES, EngineResult
from repro.server.app import REQUEST_MEMO_ENTRIES, REQUEST_MEMO_MAX_BODY_BYTES

REPEATS = 50


@pytest.fixture
def counted(monkeypatch, fresh):
    """``(client, calls)`` against a fresh server; ``calls`` counts
    ``parse_query``, ``EngineResult.to_dict`` and ``wrap_future``."""
    calls = {"parse_query": 0, "to_dict": 0, "wrap_future": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        wire, "parse_query", counting("parse_query", wire.parse_query)
    )
    monkeypatch.setattr(
        EngineResult, "to_dict", counting("to_dict", EngineResult.to_dict)
    )
    monkeypatch.setattr(
        asyncio, "wrap_future", counting("wrap_future", asyncio.wrap_future)
    )
    _svc, client = fresh
    return client, calls


def _repeat(client, calls, body: bytes) -> tuple[dict, bytes]:
    """Send ``body`` twice (the miss, then the hit that renders the
    entry's fragment), then ``REPEATS`` more times; returns what those
    repeats added to ``calls`` and the one reply they all got."""
    for _ in range(2):
        status, warm = client.post_raw("/v1/query", body)
        assert status == 200
    before = dict(calls)
    replies = {client.post_raw("/v1/query", body) for _ in range(REPEATS)}
    assert replies == {(200, warm)}
    return {name: calls[name] - before[name] for name in calls}, warm


def test_a_cached_request_parses_renders_and_hops_nothing(counted):
    client, calls = counted
    body = json.dumps({"sparql": "select ?a, ?b where { ?a created ?b }"}).encode()
    added, _reply = _repeat(client, calls, body)
    assert added == {"parse_query": 0, "to_dict": 0, "wrap_future": 0}
    # All the work was the first two requests': one parse, the miss's
    # rendering and the entry's. (Whether the miss hopped depends on
    # whether the pool finished it before the handler looked.)
    assert (calls["parse_query"], calls["to_dict"]) == (1, 2)
    assert calls["wrap_future"] <= 1


def test_a_body_above_the_memo_cap_is_parsed_every_time(counted):
    client, calls = counted
    body = json.dumps({"sparql": "select ?a, ?b where { ?a created ?b }"}).encode()
    _, small_reply = _repeat(client, calls, body)
    padded = body + b" " * REQUEST_MEMO_MAX_BODY_BYTES
    added, padded_reply = _repeat(client, calls, padded)
    assert added == {"parse_query": REPEATS, "to_dict": 0, "wrap_future": 0}
    assert padded_reply == small_reply
    stats = client.get("/v1/stats")[1]["http"]
    assert stats["request_memo"]["size"] == 1


def test_a_fragment_above_its_cap_is_rendered_every_time(counted):
    client, calls = counted
    doc = {"sparql": "select ?a, ?b where { ?a linksTo ?b }", "limit": None}
    added, reply = _repeat(client, calls, json.dumps(doc).encode())
    assert len(reply) > MAX_MEMOIZED_JSON_BYTES
    assert added == {"parse_query": 0, "to_dict": REPEATS, "wrap_future": 0}
    # The same entry under the default limit fits, and is kept.
    doc.pop("limit")
    added, reply = _repeat(client, calls, json.dumps(doc).encode())
    assert len(reply) < MAX_MEMOIZED_JSON_BYTES
    assert added == {"parse_query": 0, "to_dict": 0, "wrap_future": 0}


def test_result_keeps_only_its_last_rendering_and_only_under_the_cap(mini_yago):
    rows = [(0, 1)] * 4000
    result = EngineResult(engine="WF", count=len(rows), rows=rows, stats={})
    dictionary = mini_yago.dictionary
    for limit in (None, 5, 7, None, 5):
        rendered = result.to_json(dictionary, limit)
        assert rendered == json.dumps(result.to_dict(dictionary, limit)).encode()
        kept = result.memoized_json(dictionary, limit)
        if len(rendered) > MAX_MEMOIZED_JSON_BYTES:
            assert limit is None and kept is None
        else:
            assert kept is rendered
    # One rendering at a time: asking for another limit replaced it.
    assert result.memoized_json(dictionary, 7) is None
    assert result.memoized_json(dictionary, 5) is not None
    assert result.memoized_json(object(), 5) is None


def test_memos_stay_within_their_caps_under_5000_distinct_bodies(counted):
    """Distinct bodies over one cached result: the request memo fills to
    its entry cap and stays there; the entry keeps one fragment. Limits
    fall, so the rows the first request built serve every later one."""
    client, _calls = counted
    total = 5000
    assert total > 4 * REQUEST_MEMO_ENTRIES
    for i in range(total):
        body = json.dumps(
            {"sparql": "select ?a, ?b where { ?a exports ?b }",
             "limit": total - 1 - i}
        ).encode()
        status, _reply = client.post_raw("/v1/query", body)
        assert status == 200
        if i % 997 == 0 or i == total - 1:
            http = client.get("/v1/stats")[1]["http"]
            memo = http["request_memo"]
            assert memo["size"] == min(i + 1, REQUEST_MEMO_ENTRIES)
            assert memo["maxsize"] == REQUEST_MEMO_ENTRIES
    assert memo["misses"] == total and memo["hits"] == 0
    # Every limit re-rendered the one entry's fragment (the miss and
    # each new limit), and none of them was kept beside another.
    assert http["result_fragments"] == {"rendered": total, "reused": 0}
    service = client.get("/v1/stats")[1]["service"]
    assert service["result_cache"]["size"] == 1
    assert service["result_cache"]["misses"] == 1
