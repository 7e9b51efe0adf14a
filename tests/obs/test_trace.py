"""Unit tests for request traces: spans, contextvars, the ring buffer."""

from __future__ import annotations

import threading
import time

from repro.obs.trace import (
    Trace,
    TraceBuffer,
    activate_trace,
    current_trace,
    deactivate_trace,
    new_trace_id,
    sanitize_trace_id,
    trace_span,
)


def test_new_trace_ids_are_hex_and_distinct():
    ids = {new_trace_id() for _ in range(64)}
    assert len(ids) == 64
    for trace_id in ids:
        assert len(trace_id) == 16
        int(trace_id, 16)  # must be hex


def test_sanitize_accepts_safe_ids_and_rejects_hostile_ones():
    assert sanitize_trace_id("req-12.a_B") == "req-12.a_B"
    assert sanitize_trace_id("a" * 64) == "a" * 64
    assert sanitize_trace_id("a" * 65) is None
    assert sanitize_trace_id("") is None
    assert sanitize_trace_id(None) is None
    # Header/log-line smuggling attempts must be rejected wholesale.
    assert sanitize_trace_id("evil\r\nSet-Cookie: x") is None
    assert sanitize_trace_id('x" y') is None
    assert sanitize_trace_id("a b") is None


def test_trace_adopts_safe_id_and_mints_over_hostile_one():
    assert Trace("client-id").trace_id == "client-id"
    minted = Trace("bad id\n")
    assert minted.trace_id != "bad id\n"
    assert len(minted.trace_id) == 16


def test_spans_record_offsets_and_durations():
    trace = Trace()
    with trace.span("outer"):
        with trace.span("inner", nested=True):
            time.sleep(0.01)
    trace.finish()
    assert [name for name, *_ in trace.spans] == ["inner", "outer"]
    by_name = {name: (start, dur, nested)
               for name, start, dur, nested in trace.spans}
    assert by_name["inner"][2] is True
    assert by_name["outer"][2] is False
    assert by_name["outer"][1] >= by_name["inner"][1] >= 0.01
    assert trace.duration >= by_name["outer"][1]


def test_stage_seconds_excludes_nested_stage_millis_includes():
    trace = Trace()
    trace.add_timed("generation", 0.0, 0.5)
    trace.add_timed("burnback", 0.1, 0.2, nested=True)
    trace.add_timed("burnback", 0.25, 0.3, nested=True)
    top = trace.stage_seconds()
    assert "burnback" not in top
    assert abs(top["generation"] - 0.5) < 1e-9
    millis = trace.stage_millis()
    assert millis["generation"] == 500.0
    assert abs(millis["burnback"] - 150.0) < 1e-6  # nested spans sum


def test_add_since_last_fills_the_gap_after_the_latest_top_level_span():
    trace = Trace()
    t0 = trace._t0
    trace.add_since_last("first", t0 + 0.1)  # nothing yet: from the start
    trace.add_timed("generation", t0 + 0.2, t0 + 0.5)
    trace.add_timed("burnback", t0 + 0.4, t0 + 0.7, nested=True)
    trace.add_since_last("resume", t0 + 0.9)
    first, _gen, _burn, resume = trace.spans
    assert first[:2] == ("first", 0.0) and abs(first[2] - 0.1) < 1e-9
    # Nested spans do not count: the gap starts where generation ended.
    assert resume[0] == "resume" and resume[3] is False
    assert abs(resume[1] - 0.5) < 1e-9 and abs(resume[2] - 0.4) < 1e-9


def test_finish_is_idempotent():
    trace = Trace()
    first = trace.finish().duration
    time.sleep(0.005)
    assert trace.finish().duration == first


def test_to_dict_wire_shape():
    trace = Trace("wire-1")
    with trace.span("parse"):
        pass
    doc = trace.finish().to_dict()
    assert doc["trace_id"] == "wire-1"
    assert doc["total_ms"] >= 0
    (span,) = doc["spans"]
    assert set(span) == {"name", "start_ms", "duration_ms", "nested"}
    assert span["name"] == "parse" and span["nested"] is False


def test_trace_span_is_noop_without_active_trace():
    assert current_trace() is None
    with trace_span("anything"):
        pass  # must not raise, must not record anywhere


def test_activate_flows_and_resets():
    trace = Trace()
    token = activate_trace(trace)
    try:
        assert current_trace() is trace
        with trace_span("stage"):
            pass
    finally:
        deactivate_trace(token)
    assert current_trace() is None
    assert [name for name, *_ in trace.spans] == ["stage"]


def test_activation_does_not_leak_across_threads():
    """contextvars start fresh per thread — the service re-activates."""
    trace = Trace()
    token = activate_trace(trace)
    seen = {}

    def worker():
        seen["before"] = current_trace()
        inner = activate_trace(trace)
        with trace_span("worker_stage"):
            pass
        deactivate_trace(inner)
        seen["after"] = current_trace()

    try:
        t = threading.Thread(target=worker)
        t.start()
        t.join()
    finally:
        deactivate_trace(token)
    assert seen["before"] is None
    assert seen["after"] is None
    assert [name for name, *_ in trace.spans] == ["worker_stage"]


def test_trace_buffer_evicts_oldest():
    buf = TraceBuffer(capacity=3)
    traces = [Trace(f"t{i}") for i in range(5)]
    for trace in traces:
        buf.record(trace)
    assert len(buf) == 3
    assert buf.recent_ids() == ["t2", "t3", "t4"]
    assert buf.recent_ids(2) == ["t3", "t4"]
    assert [t.trace_id for t in buf.recent(1)] == ["t4"]


def test_trace_buffer_rejects_bad_capacity():
    import pytest

    with pytest.raises(ValueError):
        TraceBuffer(capacity=0)
