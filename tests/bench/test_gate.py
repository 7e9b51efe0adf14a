"""The shared gate runner: thresholds, the baseline rule, exit codes.

No timing anywhere: ``measure`` is a stub returning fixed numbers.
"""

import json

import pytest

from repro.bench import gate
from repro.bench.gate import Gate

SPEEDUP = Gate("speedup", floor=2.0, tolerance=0.25, like_for_like=("size",))


def run(capsys, results, gates, *argv):
    args = gate.parser("test").parse_args([str(a) for a in argv])
    status = gate.run("bench_test", lambda smoke: dict(results), gates, args)
    return status, capsys.readouterr().out


def baseline_file(tmp_path, **record):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(record))
    return path


def test_parser_takes_exactly_the_three_flags():
    options = {
        flag for action in gate.parser("x")._actions for flag in action.option_strings
    }
    assert options == {"-h", "--help", "--smoke", "--output", "--baseline"}


@pytest.mark.parametrize(
    "value, floor, ceiling, status",
    [
        (2.0, 2.0, None, 0),
        (1.9, 2.0, None, 1),
        (3.0, None, 3.0, 0),
        (3.1, None, 3.0, 1),
        (None, 2.0, None, 1),  # a gate on nothing is a failure
    ],
)
def test_floor_and_ceiling_decide_the_exit_code(capsys, value, floor, ceiling, status):
    got, out = run(capsys, {"nested": {"v": value}},
                   [Gate("nested.v", floor=floor, ceiling=ceiling)])
    assert got == status
    assert ("FAIL" in out) == bool(status)


def test_header_and_verdicts_are_written(capsys, tmp_path):
    out_path = tmp_path / "out.json"
    status, _ = run(capsys, {"speedup": 3.0}, [Gate("speedup", floor=2.0)],
                    "--smoke", "--output", out_path)
    written = json.loads(out_path.read_text())
    assert status == 0
    assert written["benchmark"] == "bench_test" and written["mode"] == "smoke"
    assert {"schema", "python", "platform", "cpus"} <= set(written)
    assert written["gates"]["speedup"] == {
        "value": 3.0, "floor": 2.0, "ceiling": None,
        "verified": True, "reason": None,
    }


@pytest.mark.parametrize("value, status", [(3.0, 0), (2.9, 1)])
def test_regression_inside_and_outside_tolerance(capsys, tmp_path, value, status):
    base = baseline_file(tmp_path, speedup=4.0, size=10)  # bound: 3.0
    got, out = run(capsys, {"speedup": value, "size": 10}, [SPEEDUP],
                   "--baseline", base)
    assert got == status
    assert ("no regression" in out) == (status == 0)


def test_like_for_like_mismatch_is_a_printed_skip_not_a_pass(capsys, tmp_path):
    base = baseline_file(tmp_path, speedup=40.0, size=99)
    status, out = run(capsys, {"speedup": 3.0, "size": 10}, [SPEEDUP],
                      "--baseline", base)
    assert status == 0
    assert "SKIP  baseline size=99 vs this run 10" in out
    assert "no regression" not in out


def test_missing_baseline_is_a_notice(capsys, tmp_path):
    status, out = run(capsys, {"speedup": 3.0, "size": 10}, [SPEEDUP],
                      "--baseline", tmp_path / "absent.json")
    assert status == 0
    assert "absent.json missing" in out and "no regression" not in out


def test_unverified_baseline_is_never_compared(capsys, tmp_path):
    nested = Gate("curve.speedup", floor=2.0, tolerance=0.25)
    out_path = tmp_path / "recorded.json"
    results = {"curve": {"speedup": 0.7}, "skip": {"curve.speedup": "1 core(s) < 4"}}
    status, out = run(capsys, results, [nested], "--output", out_path)
    assert status == 0 and "SKIP  curve.speedup: 1 core(s) < 4" in out
    recorded = json.loads(out_path.read_text())
    assert recorded["gates"]["curve.speedup"]["verified"] is False
    assert "skip" not in recorded

    # A gate that never fired is no baseline, whatever its number was.
    status, out = run(capsys, {"curve": {"speedup": 2.0}}, [nested],
                      "--baseline", out_path)
    assert status == 0
    assert "UNVERIFIED  baseline curve.speedup: 1 core(s) < 4" in out
    assert "no regression" not in out


def test_smoke_run_refuses_to_overwrite_a_full_recording(capsys, tmp_path):
    out_path = tmp_path / "BENCH.json"
    assert run(capsys, {"speedup": 3.0}, [], "--output", out_path)[0] == 0
    before = out_path.read_text()
    assert json.loads(before)["mode"] == "full"

    args = gate.parser("test").parse_args(["--smoke", "--output", str(out_path)])
    status = gate.run("bench_test", pytest.fail, [], args)  # never measured
    assert status == 2
    assert "REFUSED" in capsys.readouterr().out
    assert out_path.read_text() == before
    # full over full is an ordinary re-recording
    assert run(capsys, {"speedup": 3.1}, [], "--output", out_path)[0] == 0
