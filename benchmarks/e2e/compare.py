"""Compare two result files written by ``run.py``.

    python3 benchmarks/e2e/compare.py A.json B.json [--layers]

One row per (workload, end-to-end metric): both medians, how much worse
B is than A (negative = better), the bound from BENCHMARK.json and the
wider of the two files' run-to-run spreads. A row is

    ok          B is not worse than A by more than the bound
    worse       it is
    unresolved  the spread is wider than the bound, so neither can be
                said (a file of one run per workload has no spread)

Two files of the same commit show whether the benchmark repeats; a
parent's file against a change's shows what the change did. ``--layers``
adds the per-layer values, which have no bound; a count that differs
between two files of one commit is marked, since counts must repeat
exactly. Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def worsening(a: float, b: float, better: str) -> float:
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv: list[str]) -> int:
    layers = "--layers" in argv
    paths = [arg for arg in argv if not arg.startswith("--")]
    if len(paths) != 2:
        sys.exit(__doc__)
    a, b = (json.loads(Path(path).read_text()) for path in paths)
    for key in ("git_sha", "seeds", "scale", "run_seconds", "nproc"):
        print(f"{key:12s} A {a['stamp'][key]}   B {b['stamp'][key]}")
    worse = 0
    for name, in_a in a["workloads"].items():
        in_b = b["workloads"].get(name)
        if in_b is None:
            continue
        print(f"\n{name}")
        for metric in SPEC["end_to_end"]:
            ea = in_a["end_to_end"][metric["name"]]
            eb = in_b["end_to_end"][metric["name"]]
            change = worsening(ea["median"], eb["median"], metric["better"])
            spreads = [s for s in (ea["spread"], eb["spread"]) if s is not None]
            spread = max(spreads) if spreads else None
            if spread is not None and spread > metric["bound"]:
                verdict = "unresolved"
            elif change > metric["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            shown = "    n/a" if spread is None else f"{spread:7.3f}"
            print(f"  {metric['name']:14s} {ea['median']:12.4f} {eb['median']:12.4f}"
                  f" {metric['unit']:4s} worse by {change:+7.3f}"
                  f"  bound {metric['bound']:.2f}  spread {shown}  {verdict}")
        if not layers:
            continue
        for metric in SPEC["per_layer"]:
            va = in_a["per_layer"][metric["name"]]["value"]
            vb = in_b["per_layer"][metric["name"]]["value"]
            change = (vb - va) / va if va else 0.0
            mark = "  differs" if (
                metric["unit"] == "count" and va != vb) else ""
            print(f"  {metric['name']:40s} {va:14.4f} {vb:14.4f} "
                  f"{metric['unit']:9s} {change:+7.3f}{mark}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
