"""The one runner behind every gate script in ``benchmarks/``.

A gate script is a ``measure(smoke) -> dict`` function plus a list of
:class:`Gate` rows over that dict. This module owns the rest: the
``--smoke/--output/--baseline`` parser, the result header, floor and
ceiling evaluation, the one baseline-regression rule, the refusal to
overwrite a full-mode recording with a smoke run, and the exit code
(0 pass, 1 a gate failed, 2 refused to overwrite).

``measure`` may return ``"skip": {key: reason}`` for gates this machine
cannot demonstrate (too few cores, a backend that does not mmap). Such a
gate prints ``SKIP`` and is recorded ``"verified": false`` with the reason;
as a later ``--baseline`` it prints ``UNVERIFIED`` instead of being compared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Gate:
    """One threshold on ``results[key]`` (``key`` is a dotted path)."""

    key: str
    floor: "float | None" = None  # value >= floor
    ceiling: "float | None" = None  # value <= ceiling
    #: value >= baseline value * (1 - tolerance), compared only when
    #: every ``like_for_like`` key is equal in the run and the baseline.
    tolerance: "float | None" = None
    like_for_like: tuple = ()


def _lookup(record: dict, key: str):
    """``record["a"]["b"]`` for ``key == "a.b"``; ``None`` if absent."""
    for part in key.split("."):
        if not isinstance(record, dict) or part not in record:
            return None
        record = record[part]
    return record


def parser(description: str) -> argparse.ArgumentParser:
    """The three flags every gate script takes, and only those."""
    p = argparse.ArgumentParser(description=description)
    p.add_argument("--smoke", action="store_true", help="CI-sized run")
    p.add_argument("--output", type=Path, default=None,
                   help="write the results JSON here")
    p.add_argument("--baseline", type=Path, default=None,
                   help="committed BENCH_*.json to check for regressions against")
    return p


def header(benchmark: str, smoke: bool) -> dict:
    return {
        "benchmark": benchmark,
        "schema": 3,  # 3: shared header + per-gate verdicts under "gates"
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "mode": "smoke" if smoke else "full",
    }


def _read(path: "Path | None") -> "dict | None":
    if path is None or not path.exists():
        return None
    return json.loads(path.read_text())


def write(path: "Path | None", results: dict) -> None:
    if path is not None:
        path.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {path}")


def _say(ok: bool, key: str, value, relation: str, bound: str) -> bool:
    print(f"{'ok  ' if ok else 'FAIL'}  {key} {value:.4g} "
          f"{relation if ok else 'not ' + relation} {bound}")
    return ok


def _compare(gate: Gate, value, results: dict, baseline: dict) -> "bool | None":
    """One regression check: True ok, False regressed, None not compared."""
    recorded = baseline.get("gates", {}).get(gate.key, {})
    if recorded.get("verified") is False:
        print(f"UNVERIFIED  baseline {gate.key}: {recorded.get('reason')}")
        return None
    if gate.tolerance is None or value is None:
        return None
    for key in gate.like_for_like:
        if _lookup(baseline, key) != _lookup(results, key):
            print(f"SKIP  baseline {key}={_lookup(baseline, key)!r} vs this run "
                  f"{_lookup(results, key)!r}: {gate.key} not compared")
            return None
    reference = _lookup(baseline, gate.key)
    if reference is None:
        print(f"SKIP  baseline has no {gate.key}: not compared")
        return None
    bound = reference * (1.0 - gate.tolerance)
    return _say(value >= bound, gate.key, value, ">=", f"{bound:.4g} "
                f"(baseline {reference:.4g} - {gate.tolerance:.0%})")


def run(benchmark: str, measure, gates, args) -> int:
    """Measure, evaluate ``gates``, print, write ``--output``; exit code."""
    if args.smoke and (_read(args.output) or {}).get("mode") == "full":
        print(f"REFUSED: {args.output} is a full-mode recording; "
              f"a --smoke run does not overwrite it")
        return 2
    results = {**header(benchmark, args.smoke), **measure(args.smoke)}
    skip = results.pop("skip", {})
    baseline = _read(args.baseline)
    if args.baseline is not None and baseline is None:
        print(f"SKIP  baseline {args.baseline} missing: nothing compared")
    failed, compared = False, []
    results["gates"] = {}
    for gate in gates:
        value, reason = _lookup(results, gate.key), skip.get(gate.key)
        results["gates"][gate.key] = {
            "value": value, "floor": gate.floor, "ceiling": gate.ceiling,
            "verified": reason is None, "reason": reason,
        }
        if reason is not None:
            print(f"SKIP  {gate.key}: {reason}")
        elif value is None:
            print(f"FAIL  {gate.key} was not measured")
            failed = True
        else:
            if gate.floor is not None:
                failed |= not _say(value >= gate.floor, gate.key, value,
                                   ">=", f"floor {gate.floor:g}")
            if gate.ceiling is not None:
                failed |= not _say(value <= gate.ceiling, gate.key, value,
                                   "<=", f"ceiling {gate.ceiling:g}")
        if baseline is not None:
            outcome = _compare(gate, None if reason else value, results, baseline)
            if gate.tolerance is not None:
                compared.append(outcome)
    if compared and all(compared):  # a skipped compare is never a pass
        print(f"no regression vs {args.baseline}")
    write(args.output, results)
    return 1 if failed or False in compared else 0
