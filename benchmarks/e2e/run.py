"""The repository's one benchmark. BENCHMARK.json at the root names its
workloads and metrics; README.md beside this file says what they mean.

    python3 benchmarks/e2e/run.py --seed 0
        every workload untraced, then traced; prints every metric with
        its unit and writes out/result-seed0.json
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one run; the last line of stdout is the result as one JSON object
    python3 benchmarks/e2e/run.py --check
        self-test of the benchmark itself, under 30 s
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from common import (  # noqa: E402
    OUT,
    SCALE,
    Oracle,
    calibrate,
    host_speed,
    peak_rss_mb,
    percentile,
)
from trace import Tracer  # noqa: E402
from workloads import Record, make  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SETUP_REPS = 3


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------


def reference_seconds(action):
    """``action()``'s wall-clock time at the host's speed around it
    (see common.REFERENCE_S), and what it returned."""
    before = calibrate()
    start = time.perf_counter()
    result = action()
    wall = time.perf_counter() - start
    return wall * host_speed(before, calibrate()), result


def set_up(workload, reps: int) -> float:
    """Build the program ``reps`` times over; the median is the
    repeatable part of set-up time, the last build is the one measured."""
    times = []
    for _ in range(reps):
        workload.drop()
        gc.collect()
        times.append(reference_seconds(workload.build)[0])
    workload.prepare()
    return statistics.median(times)


def untraced(workload, seconds: float, reps: int, oracle: Oracle):
    build_s = set_up(workload, reps)
    warm_s, warm = reference_seconds(
        lambda: workload.run(count=workload.cycle))
    record = workload.run(seconds=seconds)
    # Read before the oracle runs in this process: for an in-process
    # workload this process is the one running the program.
    rss = peak_rss_mb(workload.program_pid())

    known = oracle.counts(workload.store, workload.oracle_queries())
    wrong = workload.failures(record, known)
    failed = (workload.first_failures(known) + workload.failures(warm, known)
              + wrong + workload.finish(known)["failed"])

    # Times are in reference seconds; the notes carry the wall clock's.
    latencies = record.latencies
    metrics = {
        "setup_s": build_s + warm_s,
        "ops_per_s": (len(latencies) - wrong) / record.reference_seconds,
        "op_p50_ms": statistics.median(record.reference_latencies) * 1e3,
        "peak_rss_mb": rss,
    }
    wall = sum(seconds for _, seconds, _ in record.slices)
    notes = {"timed_ops": len(latencies),
             "host_speed": record.host_speed,
             "wall_ops_per_s": (len(latencies) - wrong) / wall,
             "wall_op_p50_ms": statistics.median(latencies) * 1e3,
             "wall_op_p95_ms": percentile(latencies, 0.95) * 1e3}
    attempted = len(workload.first) + len(warm.index) + len(latencies)
    return metrics, attempted, failed, notes


def traced(workload, seconds: float, oracle: Oracle):
    m: dict[str, float] = {}
    set_up(workload, 1)
    tracer = Tracer()
    twin = workload.make_twin(tracer)

    def replay(count: int) -> Record:
        """Operations as in an untraced run, each followed by the
        twin's layer calls. The collector is off during those, and the
        young generations are collected before the next operation,
        outside any span: left alone, its pauses fell in step with the
        re-runs and made them look 20 % longer than the operations they
        price. Full collections stay on the operations' own schedule."""
        record = Record()
        for _ in range(count):
            tracer.next_op()
            outcome = workload.execute(workload.cursor)
            gc.disable()
            try:
                workload.price(workload.cursor, *outcome[:2], twin)
            finally:
                gc.enable()
                gc.collect(1)
            record.add(workload.cursor, *outcome)
            workload.cursor += 1
        return record

    try:
        warm = replay(workload.cycle)
        before = workload.service_stats()
        tracer.phase = "replay"
        replayed = replay(workload.replay_ops)
        after = workload.service_stats()
    finally:
        twin.close()
    # The same operations with no twin between them: what tracing costs.
    plain = workload.run(count=workload.cycle)
    # Tail latency, which is too unsteady here to carry a bound.
    timed = workload.run(seconds=seconds / 2)

    known = oracle.counts(workload.store, workload.oracle_queries())
    records = (warm, replayed, plain, timed)
    failed = workload.first_failures(known) + sum(
        workload.failures(record, known) for record in records)
    attempted = len(workload.first) + sum(
        len(record.index) for record in records)

    layers.from_trace(tracer, twin, m)
    layers.cache_deltas(before, after, workload.replay_ops, m)
    m["bench.trace_overhead_share"] = layers.trace_overhead(
        replayed, plain, workload.cycle)
    m["op_p95_ms"] = percentile(timed.latencies, 0.95) * 1e3
    m["bench.host_speed"] = timed.host_speed
    gaps = [b - a for a, b in zip(plain.end, plain.start[1:])]
    m["bench.generator_lag_us"] = statistics.median(gaps) * 1e6
    m["server.response_bytes_per_op"] = statistics.fmean(twin.response_bytes)
    m["server.refused_per_op"] = sum(
        1 for record in records for status in record.status
        if status in (429, 503)) / attempted

    scale, work, seed = workload.scale, workload.work, workload.seed
    snapshot = layers.storage_and_graph(scale, work, seed, m)
    layers.wal(work, m)
    cached = workload.oracle_queries()[0].to_sparql()
    layers.server(snapshot, work, cached, m, running=workload.server)
    if workload.name == "write_read_mix":
        tail = workload.finish(known)
        failed += tail["failed"]
        for record in records[1:]:
            warm.merge(record)
        layers.write_path(workload, warm, tail, m)
    else:
        failed += layers.write_path_probe(scale, work, seed, oracle, m)
    m["failed_share"] = failed / attempted
    m["bench.oracle_s"] = oracle.seconds
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}.jsonl")
    return m, attempted, failed, {"spans": len(tracer.spans)}


def run_one(name: str, seed: int, seconds: float, trace: bool, scale: float,
            reps: int) -> tuple[dict, dict]:
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workload = make(name, scale, seed, work)
    oracle = Oracle(scale)
    try:
        if trace:
            metrics, attempted, failed, notes = traced(
                workload, seconds, oracle)
        else:
            metrics, attempted, failed, notes = untraced(
                workload, seconds, reps, oracle)
    finally:
        workload.drop()
        shutil.rmtree(work, ignore_errors=True)
    unit_of = units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(unit_of):
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(unit_of) - set(metrics))}, unknown "
            f"{sorted(set(metrics) - set(unit_of))}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]}
                    for k, v in metrics.items()},
    }, notes


# ----------------------------------------------------------------------
# Every workload, stamped and written down
# ----------------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def child(workload: str, seed: int, seconds: float, trace: int,
          scale: float) -> dict:
    """One run in a process of its own, so peak memory is that run's."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--scale", str(scale)],
        stdout=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def git_state() -> tuple["str | None", bool]:
    """``(sha, src/ is dirty)``; ``(None, False)`` outside a git tree."""
    def git(*args: str) -> "str | None":
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    return sha, bool(sha and git("status", "--porcelain", "--", "src"))


def spread(values: list[float]) -> "float | None":
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_all(args) -> int:
    sha, dirty = git_state()
    if dirty and not args.allow_dirty:
        sys.exit("run.py: src/ has uncommitted changes, so the result would "
                 "name no commit; commit them or pass --allow-dirty")
    seeds = list(range(args.seed, args.seed + args.runs))
    result = {
        "stamp": {
            "git_sha": sha, "src_dirty": dirty, "nproc": os.cpu_count(),
            "platform": platform.platform(), "python": platform.python_version(),
            "seeds": seeds, "scale": args.scale, "run_seconds": args.seconds,
            "connections": {"http_hot": 1, "http_mixed": 1},
            "flush_policy": 'fsync="batch"',
        },
        "workloads": {},
    }
    failed = 0
    for name in WORKLOADS:
        runs = [child(name, seed, args.seconds, 0, args.scale) for seed in seeds]
        layer_run = child(name, seeds[0], args.seconds, 1, args.scale)
        end_to_end = {}
        for metric, unit in units("end_to_end").items():
            values = [run["metrics"][metric]["value"] for run in runs]
            end_to_end[metric] = {
                "unit": unit, "values": values,
                "median": statistics.median(values), "spread": spread(values),
            }
        failed += sum(run["failed"] for run in runs) + layer_run["failed"]
        result["workloads"][name] = {
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "end_to_end": end_to_end,
            "per_layer": layer_run["metrics"],
        }
        print(f"\n{name}  ({len(seeds)} run(s), "
              f"{result['workloads'][name]['failed']} failed)")
        for metric, entry in end_to_end.items():
            shown = "" if entry["spread"] is None else (
                f"  spread {entry['spread']:.3f}")
            print(f"  {metric:44s} {entry['median']:14.4f} {entry['unit']}{shown}")
        for metric, entry in layer_run["metrics"].items():
            print(f"  {metric:44s} {entry['value']:14.4f} {entry['unit']}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-seed{args.seed}.json"
    path.write_text(json.dumps(result, indent=1))
    print(f"\nwrote {path.relative_to(ROOT)}; failed operations: {failed}")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# --check: the benchmark tests itself
# ----------------------------------------------------------------------

CHECK_SCALE = 0.25
COUNTS = ("core.edge_walks_per_op", "core.ag_edges_per_op",
          "core.burned_nodes_per_op", "core.spurious_pairs_per_op",
          "service.result_cache_hit_rate", "bench.replay_ops")


def last_replay(workload: str) -> tuple[list[str], list[str]]:
    """What the last traced run asked, and what was a hit, in order."""
    with open(OUT / f"trace-{workload}.jsonl") as lines:
        spans = [json.loads(line) for line in lines]
    return ([s["asked"] for s in spans if "asked" in s],
            [s["cache"] for s in spans if "cache" in s])


def check() -> int:
    for kind in ("end_to_end", "per_layer"):
        for metric in SPEC[kind]:
            assert NAME.match(metric["name"]), metric
            assert UNIT.match(metric["unit"]), metric

    def traced_thrice(workload: str) -> None:
        first = child(workload, 0, 1, 1, CHECK_SCALE)
        seed0 = last_replay(workload)
        again = child(workload, 0, 1, 1, CHECK_SCALE)
        assert seed0 == last_replay(workload), (
            f"{workload}: two replays of seed 0 asked or hit differently")
        for count in COUNTS:
            assert first["metrics"][count] == again["metrics"][count], (
                f"{workload}: {count} differs between two replays of seed 0")
        other = child(workload, 1, 1, 1, CHECK_SCALE)
        assert seed0[0] != last_replay(workload)[0], (
            f"{workload}: seed 1 replayed seed 0's operations")
        assert set(other["metrics"]) == set(first["metrics"])
        assert first["correct"] and again["correct"] and other["correct"]

    with ThreadPoolExecutor(2) as pool:
        runs = [pool.submit(child, name, 0, 1, 0, CHECK_SCALE)
                for name in WORKLOADS]
        replays = [pool.submit(traced_thrice, name)
                   for name in ("http_hot", "table1_diamond")]
        for name, future in zip(WORKLOADS, runs):
            run = future.result()
            assert run["correct"], f"{name}: {run['failed']} failed operations"
        for future in replays:
            future.result()
    print("check passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=SCALE,
                        help="fixture size; only --check uses another")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload, on consecutive seeds")
    parser.add_argument("--allow-dirty", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    if args.check:
        return check()
    if args.workload is None:
        return run_all(args)
    result, notes = run_one(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.scale, SETUP_REPS)
    print(json.dumps(notes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
