"""Span recorder for the traced replay.

A span is one timed call into a public function of ``repro.*`` (or the
root: one whole operation as the workload's user sees it). Spans are
kept in memory and written to ``out/trace-<workload>.jsonl`` when the
run ends, one JSON object per line::

    {"id": 7, "op": 3, "name": "core.generation", "start": 1.25,
     "end": 1.31, "parent": 5, "on_path": true, "phase": "replay"}

A root span also says ``"asked"``: the query's name, or the write made;
a ``service.evaluate`` span says ``"cache"``: hit or miss.

``start``/``end`` are ``time.perf_counter()`` seconds. ``op`` is shared
by every span of one operation. ``parent`` is the span that caused this
one. The program is opaque from outside, so the children of a root are
measured by re-running the same operation through the layer's public
functions right after the root returns: a child's interval lies after
its parent's, and a span's **self time** is its duration minus the sum
of its children's durations (the children of one parent run one after
another, so that sum is the part of the interval they cover).

``on_path`` is false for a layer call made only to price that layer on
this workload's inputs (HTTP parsing of an in-process workload's
queries, say): such spans hang under no root and never count towards
an operation's time.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.phase = "warmup"
        self._op = -1

    def next_op(self) -> int:
        self._op += 1
        return self._op

    def add(self, name: str, start: float, end: float, parent: "int | None",
            on_path: bool = True, **notes) -> int:
        """Record a finished span; returns its id. ``notes`` are extra
        keys, such as which query a root span asked."""
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id, "op": self._op, "name": name, "start": start,
            "end": end, "parent": parent, "on_path": on_path,
            "phase": self.phase, **notes,
        })
        return span_id

    def call(self, name: str, parent: "int | None", fn, *args,
             on_path: bool = True):
        """Time ``fn(*args)`` as one span; returns ``(span id, result)``."""
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        return self.add(name, start, end, parent, on_path), result

    def self_times(self) -> list[float]:
        """Self time of every span, by span id (negative when the
        re-run children took longer than the parent did)."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write(self, path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(s) + "\n")
