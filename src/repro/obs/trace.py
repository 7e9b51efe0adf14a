"""Request traces: stage spans, contextvar propagation, a ring buffer.

A :class:`Trace` is minted at HTTP admission (or adopted from the
client's ``X-Repro-Trace-Id`` header) and carried through
``QueryService.submit`` into the worker thread, where it is re-activated
so the engine's stage hooks (:func:`trace_span`) find it through the
contextvar without any plumbing through call signatures.

Spans are flat ``(name, start_offset, duration, nested)`` tuples
relative to the trace's start. *Top-level* spans (``nested=False``) are
contiguous, non-overlapping stages of one request — parse, queue_wait,
plan, generation, defactorize, resume, serialize — so their durations
sum to (just under) the end-to-end latency; *nested* spans (burnback,
which runs inside generation) attribute time without double counting.

Everything on the hot path is built to cost single-digit microseconds:
spans are tuple appends (atomic under the GIL — worker threads of one
batch may record concurrently), the ring buffer is a bounded deque, and
every hook is a no-op when no trace is active.
"""

from __future__ import annotations

import os
import string
import time
from collections import deque
from contextvars import ContextVar
from itertools import count

_ACTIVE: "ContextVar[Trace | None]" = ContextVar("repro_trace", default=None)

#: Characters a client-supplied trace id may use (it is echoed into a
#: response header and into log lines, so it must be inert there).
_ID_CHARS = frozenset(string.ascii_letters + string.digits + "._-")

#: Longest accepted client-supplied trace id.
MAX_TRACE_ID_LEN = 64


_id_prefix = os.urandom(4).hex()
_id_counter = count()


def _reseed_ids() -> None:
    """Fresh id prefix after fork, so worker processes never collide."""
    global _id_prefix, _id_counter
    _id_prefix = os.urandom(4).hex()
    _id_counter = count()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_reseed_ids)


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id.

    A random 8-hex process prefix plus an 8-hex sequence number: unique
    within a process by construction, collision-resistant across
    processes via the prefix (re-randomized after ``fork``), and ~4x
    cheaper to mint than fully random bytes — this runs once per
    request.
    """
    return _id_prefix + "%08x" % (next(_id_counter) & 0xFFFFFFFF)


def sanitize_trace_id(value: "str | None") -> "str | None":
    """``value`` if it is a safe trace id, else ``None``.

    Safe means 1–64 characters of ``[A-Za-z0-9._-]`` — anything a
    client could use to smuggle header or log-line structure is
    rejected (the caller mints a fresh id instead).
    """
    if not value or len(value) > MAX_TRACE_ID_LEN:
        return None
    if not _ID_CHARS.issuperset(value):
        return None
    return value


class Trace:
    """One request's identity, stage spans, and free-form annotations.

    ``annotations`` is where the serving layer parks request context
    (query name, plan cache outcome, ...) for the slow-query log; keys
    starting with ``_`` are private carriers and never serialized. The
    dict is materialized on first access — the per-request hot path
    uses the dedicated slots below instead (a slot store is a third the
    cost of a dict store and allocates nothing):

    * ``route`` / ``status`` — the request's metric label and outcome;
    * ``_query`` / ``_stats`` — the parsed query and result stats,
      private carriers the slow-query log derives its signature and
      plan shape from, lazily, for the rare slow request only.

    ``route``, ``status``, ``_query``, and ``_stats`` are left *unset*
    (not ``None``) until assigned; cold-path readers use ``getattr``
    with a default.
    """

    __slots__ = ("trace_id", "_t0", "_mark", "spans", "duration",
                 "route", "status", "_query", "_stats", "_ann")

    def __init__(self, trace_id: "str | None" = None):
        self.trace_id = (
            new_trace_id() if trace_id is None
            else sanitize_trace_id(trace_id) or new_trace_id()
        )
        self._t0 = time.perf_counter()
        # A parked perf_counter reading: a handler stashes the moment
        # serialization began, the dispatcher turns it into the
        # "serialize" span with the clock read it takes anyway.
        self._mark: "float | None" = None
        # (name, start_offset_seconds, duration_seconds, nested)
        self.spans: list[tuple] = []
        self.duration: "float | None" = None

    @property
    def annotations(self) -> dict:
        ann = getattr(self, "_ann", None)
        if ann is None:
            self._ann = ann = {}
        return ann

    # -- recording -----------------------------------------------------

    def add_timed(self, name: str, start: float, end: float,
                  nested: bool = False) -> None:
        """Record a span from two ``time.perf_counter()`` readings."""
        self.spans.append((name, start - self._t0, end - start, nested))

    def add_since_last(self, name: str, end: float) -> None:
        """Record a top-level span from where the latest top-level span
        ended (the trace's start if none has) to the ``perf_counter()``
        reading ``end``: the stretch no stage hook saw."""
        last = max(
            (start + dur for _name, start, dur, nested in self.spans
             if not nested),
            default=0.0,
        )
        self.spans.append((name, last, end - self._t0 - last, False))

    def span(self, name: str, nested: bool = False) -> "_Span":
        """Record the wrapped block as one span (a context manager)."""
        return _Span(self, name, nested)

    def finish(self, at: "float | None" = None) -> "Trace":
        """Stamp the end-to-end duration (idempotent).

        ``at`` — an already-taken ``perf_counter()`` reading to use as
        the end time, so a caller that just timed the request does not
        pay for another clock read.
        """
        if self.duration is None:
            end = at if at is not None else time.perf_counter()
            self.duration = end - self._t0
        return self

    # -- reporting -----------------------------------------------------

    def stage_seconds(self) -> dict[str, float]:
        """Total seconds per *top-level* stage name (nested excluded)."""
        stages: dict[str, float] = {}
        for name, _start, dur, nested in self.spans:
            if not nested:
                stages[name] = stages.get(name, 0.0) + dur
        return stages

    def stage_millis(self) -> dict[str, float]:
        """Milliseconds per span name, nested included (log breakdown)."""
        stages: dict[str, float] = {}
        for name, _start, dur, _nested in self.spans:
            stages[name] = stages.get(name, 0.0) + dur * 1000.0
        return {name: round(ms, 3) for name, ms in stages.items()}

    def to_dict(self) -> dict:
        """The wire form echoed under ``"trace"`` by ``include_trace``."""
        total = (
            self.duration
            if self.duration is not None
            else time.perf_counter() - self._t0
        )
        return {
            "trace_id": self.trace_id,
            "total_ms": round(total * 1000.0, 3),
            "spans": [
                {
                    "name": name,
                    "start_ms": round(start * 1000.0, 3),
                    "duration_ms": round(dur * 1000.0, 3),
                    "nested": nested,
                }
                for name, start, dur, nested in self.spans
            ],
        }

    def __repr__(self) -> str:
        return f"Trace({self.trace_id!r}, spans={len(self.spans)})"


class _Span:
    """A hand-rolled span context manager.

    ``@contextmanager`` costs a generator plus three helper frames per
    use — a few microseconds that would be the single largest line item
    in the per-request observability budget. This class is one
    allocation and two ``perf_counter()`` reads. ``trace`` may be
    ``None`` (the :func:`trace_span` no-trace case): timing still runs,
    recording is skipped.
    """

    __slots__ = ("_trace", "_name", "_nested", "_begun")

    def __init__(self, trace: "Trace | None", name: str, nested: bool):
        self._trace = trace
        self._name = name
        self._nested = nested

    def __enter__(self) -> "_Span":
        self._begun = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        trace = self._trace
        if trace is not None:
            begun = self._begun
            trace.spans.append((
                self._name, begun - trace._t0,
                time.perf_counter() - begun, self._nested,
            ))
        return False


# ----------------------------------------------------------------------
# Contextvar propagation
# ----------------------------------------------------------------------


def current_trace() -> "Trace | None":
    """The trace active in this context, if any."""
    return _ACTIVE.get()


def activate_trace(trace: "Trace | None"):
    """Make ``trace`` current; returns the token for :func:`deactivate_trace`.

    contextvars do not flow from a submitting thread into a
    ``ThreadPoolExecutor`` worker, so the service captures the trace at
    submit time and re-activates it explicitly on the worker thread.
    """
    return _ACTIVE.set(trace)


def deactivate_trace(token) -> None:
    """Undo one :func:`activate_trace` (pass its token back)."""
    _ACTIVE.reset(token)


def trace_span(name: str, nested: bool = False) -> _Span:
    """Span the wrapped block on the *current* trace; no-op without one.

    This is the engine-side hook: zero coupling to the serving stack,
    and nothing but a contextvar read plus one timer read when tracing
    is off.
    """
    return _Span(_ACTIVE.get(), name, nested)


# ----------------------------------------------------------------------
# Ring buffer
# ----------------------------------------------------------------------


class TraceBuffer:
    """The most recent ``capacity`` finished traces (oldest evicted)."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._traces: deque[Trace] = deque(maxlen=capacity)
        # record() runs once per request: bind the deque's C append
        # directly instead of going through a Python method frame.
        self.record = self._traces.append

    def __len__(self) -> int:
        return len(self._traces)

    def recent(self, n: int = 16) -> list[Trace]:
        """The last ``n`` traces, newest last."""
        items = list(self._traces)
        return items[-n:]

    def recent_ids(self, n: int = 16) -> list[str]:
        """Trace ids of the last ``n`` traces (the ``/v1/stats`` block)."""
        return [trace.trace_id for trace in self.recent(n)]
