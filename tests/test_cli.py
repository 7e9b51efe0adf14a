"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.utils import domains


def test_generate_and_stats(tmp_path, capsys):
    out = str(tmp_path / "ds")
    assert main(["generate", out, "--scale", "0.05", "--seed", "1"]) == 0
    text = capsys.readouterr().out
    assert "wrote" in text and "predicates" in text

    assert main(["stats", "--dataset", out, "--top", "3"]) == 0
    text = capsys.readouterr().out
    assert "triples:" in text
    assert "top 3 predicates" in text


def test_stats_in_process(capsys):
    assert main(["stats", "--scale", "0.05"]) == 0
    assert "predicates: 104" in capsys.readouterr().out


def test_query_wf(capsys):
    code = main(
        [
            "query",
            "--scale", "0.05",
            "--sparql", "select ?x, ?m where { ?x actedIn ?m }",
            "--limit", "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "rows in" in out and "[WF]" in out
    assert "|AG| =" in out
    assert "?x\t?m" in out


def test_query_wf_limit_is_what_phase_2_builds(monkeypatch, capsys):
    import json

    from repro.core.engine import WireframeEngine

    built = []
    evaluate_detailed = WireframeEngine.evaluate_detailed

    def recording(self, *args, **kwargs):
        result = evaluate_detailed(self, *args, **kwargs)
        built.append(len(result.rows))
        return result

    monkeypatch.setattr(WireframeEngine, "evaluate_detailed", recording)
    args = ["query", "--scale", "0.05", "--sparql",
            "select ?x, ?m where { ?x actedIn ?m }"]
    assert main(args + ["--limit", "3"]) == 0
    out = capsys.readouterr().out
    count = int(out.split(" rows in")[0])
    assert built == [3] and count > 3
    assert f"... ({count - 3} more)" in out
    # At least the count, --json shows every row, as without the limit.
    assert main(args + ["--limit", str(count), "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert built == [3, count]
    assert (len(result["rows"]), result["count"], result["truncated"]) == (
        count, count, False,
    )


def test_query_each_engine(capsys):
    for engine in ("PG", "VT", "MD", "NJ"):
        code = main(
            [
                "query",
                "--scale", "0.05",
                "--engine", engine,
                "--sparql", "select ?x where { ?x isCitizenOf ?c }",
                "--limit", "0",
            ]
        )
        assert code == 0
        assert f"[{engine}]" in capsys.readouterr().out


def test_query_explain(capsys):
    code = main(
        [
            "query",
            "--scale", "0.05",
            "--explain",
            "--sparql",
            "select * where { ?x livesIn ?e . ?x isCitizenOf ?z . "
            "?y isLocatedIn ?e . ?y linksTo ?z }",
            "--limit", "0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "answer-graph plan:" in out
    assert "chords: 1" in out


def test_query_explain_joins_estimated_and_actual_walks(capsys):
    import re

    code = main(
        [
            "query", "--scale", "0.05", "--explain", "--limit", "2",
            "--sparql",
            "select * where { ?x livesIn ?e . ?x isCitizenOf ?z . "
            "?y isLocatedIn ?e . ?y linksTo ?z }",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    plan = re.findall(r"^\d+\. \S+ \(~(\d+) walks\)$", out, re.M)
    steps = re.findall(
        r"^\d+\. ~(\d+) est, (\d+) actual \(ratio [\d.]+\)$", out, re.M
    )
    assert len(steps) == len(plan) == 4
    assert [est for est, _ in steps] == plan
    walks = int(re.search(r"edge walks = (\d+)", out).group(1))
    assert sum(int(actual) for _, actual in steps) == walks
    q_error = re.search(r"^plan q-error: ([\d.]+) \(~\d+ est, (\d+) actual\)$", out, re.M)
    assert float(q_error.group(1)) >= 1.0 and int(q_error.group(2)) == walks


def test_query_explain_json_keeps_stdout_one_document(capsys):
    """Under ``--json`` the plan and the walk lines go to stderr, so
    stdout parses as the JSON document alone."""
    import json

    code = main(
        [
            "query", "--scale", "0.05", "--explain", "--json", "--limit", "2",
            "--sparql",
            "select * where { ?x livesIn ?e . ?x isCitizenOf ?z . "
            "?y isLocatedIn ?e . ?y linksTo ?z }",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["result"]["count"] > 0
    assert "answer-graph plan:" in captured.err
    assert "estimated vs actual walks:" in captured.err
    assert "plan q-error:" in captured.err


def test_query_edge_burnback_requires_wf(capsys):
    code = main(
        [
            "query", "--scale", "0.05", "--engine", "PG", "--edge-burnback",
            "--sparql", "select ?x where { ?x actedIn ?m }",
        ]
    )
    assert code == 2


def test_query_edge_burnback_wf(capsys):
    code = main(
        [
            "query", "--scale", "0.05", "--edge-burnback",
            "--sparql",
            "select * where { ?x livesIn ?e . ?x isCitizenOf ?z . "
            "?y isLocatedIn ?e . ?y linksTo ?z }",
            "--limit", "0",
        ]
    )
    assert code == 0


def test_query_from_file(tmp_path, capsys):
    qfile = tmp_path / "q.rq"
    qfile.write_text("select ?x where { ?x wasBornIn ?c }")
    assert main(["query", "--scale", "0.05", "--file", str(qfile),
                 "--limit", "1"]) == 0
    assert "rows in" in capsys.readouterr().out


def test_query_parse_error_is_reported(capsys):
    code = main(["query", "--scale", "0.05", "--sparql", "not sparql"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_mine(capsys):
    assert main(
        ["mine", "--scale", "0.1", "--template", "chain", "--count", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert out.count("select distinct") == 2


def test_table1_subset(capsys):
    code = main(
        [
            "table1", "--scale", "0.05", "--runs", "1",
            "--engines", "WF,NJ", "--timeout", "30",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "WF" in out and "NJ" in out and "|Embeddings|" in out
    assert "PG" not in out


def test_unknown_command_rejected(capsys):
    assert main(["frobnicate"]) == 2
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


def test_batch_template_workload(capsys):
    code = main(
        [
            "batch", "--scale", "0.05", "--template", "chain",
            "--count", "3", "--repeat", "2", "--workers", "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "6/6 queries in" in out
    assert "service stats:" in out
    assert "result_cache" in out


def test_batch_query_file(tmp_path, capsys):
    workload = tmp_path / "queries.sparql"
    workload.write_text(
        "select ?x, ?m where { ?x actedIn ?m }\n"
        "\n"
        "select ?a, ?f where { ?a actedIn ?f }\n"
    )
    code = main(
        ["batch", "--scale", "0.05", "--file", str(workload), "--workers", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "2/2 queries in" in out


def test_batch_json_output(capsys):
    import json

    code = main(
        [
            "batch", "--scale", "0.05", "--template", "star",
            "--count", "2", "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["queries"]) == 2
    # entries carry the canonical wire forms (same shapes as /v1/batch)
    for entry in payload["queries"]:
        assert entry["query"]["version"] == 1
        assert "count" in entry["result"]
    assert payload["stats"]["completed"] == 2
    assert "plan_cache" in payload["stats"]


def test_batch_empty_file_rejected(tmp_path, capsys):
    empty = tmp_path / "empty.sparql"
    empty.write_text("\n\n")
    code = main(["batch", "--scale", "0.05", "--file", str(empty)])
    assert code == 2
    assert "empty workload" in capsys.readouterr().err


# ----------------------------------------------------------------------
# --backend flag
# ----------------------------------------------------------------------


def test_query_backend_flag(capsys):
    for backend in ("hashdict", "columnar"):
        code = main(
            [
                "query",
                "--scale", "0.05",
                "--backend", backend,
                "--sparql", "select ?x, ?m where { ?x actedIn ?m }",
                "--limit", "0",
            ]
        )
        assert code == 0
        assert f"(backend {backend})" in capsys.readouterr().out


def test_query_backend_results_agree(capsys):
    counts = {}
    for backend in ("hashdict", "columnar"):
        assert main(
            [
                "query",
                "--scale", "0.05",
                "--backend", backend,
                "--sparql", "select ?x, ?m where { ?x actedIn ?m }",
                "--limit", "0",
            ]
        ) == 0
        counts[backend] = capsys.readouterr().out.split(" rows")[0]
    assert counts["hashdict"] == counts["columnar"]


def test_stats_shows_backend(capsys):
    assert main(["stats", "--scale", "0.05", "--backend", "columnar"]) == 0
    assert "backend:    columnar" in capsys.readouterr().out


def test_batch_backend_flag(capsys):
    code = main(
        [
            "batch",
            "--scale", "0.05",
            "--backend", "columnar",
            "--template", "chain",
            "--count", "2",
            "--json",
        ]
    )
    assert code == 0
    import json as _json

    payload = _json.loads(capsys.readouterr().out)
    assert payload["stats"]["backend"] == "columnar"


def test_dataset_loads_into_any_backend(tmp_path, capsys):
    out = str(tmp_path / "ds")
    assert main(["generate", out, "--scale", "0.05", "--seed", "1"]) == 0
    capsys.readouterr()
    for backend in ("hashdict", "columnar"):
        assert main(["stats", "--dataset", out, "--backend", backend]) == 0
        assert f"backend:    {backend}" in capsys.readouterr().out


def test_unknown_backend_rejected(capsys):
    assert main(["stats", "--scale", "0.05", "--backend", "parquet"]) == 2
    assert "argument --backend" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Snapshot persistence commands (save / dump / --snapshot)
# ----------------------------------------------------------------------


def test_save_then_stats_from_snapshot(tmp_path, capsys):
    snap = str(tmp_path / "snap")
    assert main(["save", snap, "--scale", "0.05", "--backend", "columnar"]) == 0
    out = capsys.readouterr().out
    assert "snapshot" in out and "segments" in out

    assert main(["stats", "--snapshot", snap, "--top", "2"]) == 0
    out = capsys.readouterr().out
    assert "predicates: 104" in out


def test_save_from_dataset_and_query_snapshot(tmp_path, capsys):
    ds = str(tmp_path / "ds")
    snap = str(tmp_path / "snap")
    assert main(["generate", ds, "--scale", "0.05"]) == 0
    capsys.readouterr()
    assert main(["save", snap, "--dataset", ds]) == 0
    capsys.readouterr()
    query = "select ?x, ?m where { ?x actedIn ?m }"
    assert main(["query", "--snapshot", snap, "--sparql", query,
                 "--limit", "0"]) == 0
    from_snap = capsys.readouterr().out.split(" rows")[0]
    assert main(["query", "--dataset", ds, "--sparql", query,
                 "--limit", "0"]) == 0
    from_ds = capsys.readouterr().out.split(" rows")[0]
    assert from_snap == from_ds  # identical row counts


def test_save_no_overwrite_refuses(tmp_path, capsys):
    snap = str(tmp_path / "snap")
    assert main(["save", snap, "--scale", "0.05"]) == 0
    capsys.readouterr()
    assert main(["save", snap, "--scale", "0.05", "--no-overwrite"]) == 1
    assert "already exists" in capsys.readouterr().err


def test_dump_writes_ntriples(tmp_path, capsys):
    out = str(tmp_path / "out.nt")
    assert main(["dump", out, "--scale", "0.05"]) == 0
    assert "wrote" in capsys.readouterr().out
    with open(out, encoding="utf-8") as handle:
        first = handle.readline()
    assert first.rstrip().endswith(".")


def test_dump_stdout(capsys):
    assert main(["dump", "-", "--scale", "0.05"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) > 100
    assert all(line.endswith(" .") for line in lines[:10])


def test_dump_round_trips_through_parser(tmp_path):
    from repro.graph.ntriples import load_ntriples_file

    out = str(tmp_path / "out.nt")
    assert main(["dump", out, "--scale", "0.05"]) == 0
    # The YAGO-like generator's terms are bare labels, which the parser
    # does not accept back — but the file must be structurally sound
    # line-per-triple; verify a wrapped IRI file parses.
    wrapped = str(tmp_path / "wrapped.nt")
    with open(out, encoding="utf-8") as src, \
            open(wrapped, "w", encoding="utf-8") as dst:
        for line in src:
            s, p, o = line.rsplit(" .", 1)[0].split(" ", 2)
            dst.write(f"<{s}> <{p}> <{o}> .\n")
    store = load_ntriples_file(wrapped)
    with open(out, encoding="utf-8") as handle:
        assert store.num_triples == sum(1 for _ in handle)


def test_snapshot_and_dataset_flags_conflict(capsys):
    assert main(["stats", "--dataset", "x", "--snapshot", "y"]) == 2
    assert "not allowed with argument" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Crash-safe write path: compact / wal-inspect / --wal
# ----------------------------------------------------------------------


def journaled_snapshot(tmp_path):
    """A snapshot plus a 2-record WAL beside it, built via the API."""
    from repro.storage import close_store, open_store

    snap = tmp_path / "snap"
    store = open_store(snap)
    store.add_term_triples([("alice", "knows", "bob")])
    from repro.storage import compact

    compact(store)  # generation 1, log emptied
    store.add_term_triples([("bob", "likes", "carol")])
    store.remove_term_triple("alice", "knows", "bob")
    close_store(store)
    return snap


def test_wal_inspect_clean_and_json(tmp_path, capsys):
    snap = journaled_snapshot(tmp_path)
    assert main(["wal-inspect", str(snap)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out and "records" in out

    assert main(["wal-inspect", str(snap), "--json"]) == 0
    import json

    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "clean"
    assert summary["records"] == 2
    assert summary["adds"] == 1 and summary["removes"] == 1


def test_wal_inspect_flags_corruption(tmp_path, capsys):
    from tests.storage import faults

    snap = journaled_snapshot(tmp_path)
    # Damage the FIRST record while the second stays intact: corruption
    # before the committed horizon → exit code 1.
    from repro.storage import scan_wal, wal_path_for

    wal_file = wal_path_for(snap)
    first = scan_wal(wal_file).records[0]
    faults.bit_flip(wal_file, first.offset + 21)
    assert main(["wal-inspect", str(snap)]) == 1
    assert "corrupt" in capsys.readouterr().out


def test_compact_cli_folds_the_log(tmp_path, capsys):
    from repro.storage import scan_wal, snapshot_generation, wal_path_for

    snap = journaled_snapshot(tmp_path)
    assert main(["compact", str(snap)]) == 0
    out = capsys.readouterr().out
    assert "folded 2 WAL records" in out
    assert "generation 2" in out
    assert snapshot_generation(snap) == 2
    assert scan_wal(wal_path_for(snap)).records == []
    # stats over the compacted snapshot still answers, with and
    # without reopening the write path.
    assert main(["stats", "--snapshot", str(snap), "--top", "2"]) == 0
    capsys.readouterr()
    assert main(["stats", "--snapshot", str(snap), "--wal", "--top", "2"]) == 0
    assert "predicates" in capsys.readouterr().out


def test_stats_wal_reflects_unfolded_records(tmp_path, capsys):
    # The log carries a write the snapshot does not have yet; --wal
    # must surface it, a plain snapshot load must not.
    snap = journaled_snapshot(tmp_path)
    assert main(["stats", "--snapshot", str(snap), "--wal", "--top", "3"]) == 0
    with_wal = capsys.readouterr().out
    assert main(["stats", "--snapshot", str(snap), "--top", "3"]) == 0
    without = capsys.readouterr().out
    assert "likes" in with_wal  # the journaled (unfolded) write
    assert "likes" not in without  # the snapshot alone predates it
    assert "knows" in without  # ... and still holds the removed triple


@pytest.mark.parametrize("wal", [False, True])
def test_serve_snapshot_reports_its_source_and_owns_its_log(
    tmp_path, monkeypatch, wal
):
    """Single-process ``serve --snapshot P`` names P and its generation
    in the stats block, and with ``--wal`` closes the log it opened."""
    import repro.server

    snap = journaled_snapshot(tmp_path)
    seen = {}

    def fake_serve(service, **kwargs):
        seen["source"] = service.snapshot()["snapshot"]
        seen["hook"] = service.store.write_log

    monkeypatch.setattr(repro.server, "serve", fake_serve)
    argv = ["serve", "--snapshot", str(snap), "--port", "0"]
    assert main(argv + (["--wal"] if wal else [])) == 0
    assert seen["source"] == {"path": str(snap), "generation": 1}
    if wal:
        assert seen["hook"].wal.closed
    else:
        assert seen["hook"] is None


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--max-pending", "0"),
        ("--max-body-kib", "-1"),
        ("--limit", "-1"),
        ("--watchdog-timeout", "0"),
        ("--watchdog-timeout", "-1"),
        ("--watchdog-timeout", "nan"),
        ("--watchdog-interval", "-1"),
        ("--watchdog-interval", "nan"),
        ("--timeout", "-1"),
        ("--timeout", "nan"),
        ("--timeout", "inf"),
        ("--timeout", "1e999"),
        ("--slow-query-ms", "nan"),
        ("--scale", "nan"),
        ("--scale", "99999999999999999999"),
        ("--seed", "-1"),
        ("--port", "70000"),
        ("--port", "-1"),
        ("--metrics-port", "70000"),
    ],
)
def test_serve_rejects_out_of_range_numbers(monkeypatch, capsys, flag, value):
    """Refused up front, like ``--workers 0``: none of these can serve."""
    import repro.server
    from repro.server.prefork import PreforkServer

    def fail(*args, **kwargs):
        raise AssertionError("served")

    monkeypatch.setattr(repro.server, "serve", fail)
    assert main(["serve", "--scale", "0.05", "--port", "0", flag, value]) == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err
    if flag == "--watchdog-timeout":
        with pytest.raises(ValueError, match="watchdog_timeout"):
            PreforkServer("unused", watchdog_timeout=float(value))


@pytest.mark.parametrize("width", [0, domains.MAX_WORKERS + 1, 10**20])
def test_pool_widths_are_bounded_in_the_constructors(mini_yago, width):
    """What ``serve --workers`` / ``--threads`` and ``batch --workers``
    reach: refused before a process or thread is started."""
    from repro.server.prefork import PreforkServer
    from repro.service import QueryService

    with pytest.raises(ValueError, match="workers must be in"):
        PreforkServer("unused", workers=width)
    with pytest.raises(ValueError, match="threads must be in"):
        PreforkServer("unused", threads=width)
    with pytest.raises(ValueError, match="max_workers must be in"):
        QueryService(mini_yago, max_workers=width)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["query", "--sparql", "select ?x where { ?x created ?y }", "--timeout", "0"],
         "--timeout"),
        (["query", "--sparql", "select ?x where { ?x created ?y }", "--timeout", "nan"],
         "--timeout"),
        (["query", "--sparql", "select ?x where { ?x created ?y }", "--limit", "-1"],
         "--limit"),
        (["batch", "--template", "chain", "--timeout", "-1"], "--timeout"),
        (["batch", "--template", "chain", "--repeat", "0"], "--repeat"),
        (["generate", "unused", "--scale", "nan"], "--scale"),
        (["query", "--sparql", "select ?x where { ?x created ?y }", "--scale", "nan"],
         "--scale"),
        (["stats", "--scale", "inf"], "--scale"),
        (["stats", "--top", "-1"], "--top"),
        (["table1", "--runs", "0"], "--runs"),
        (["table1", "--timeout", "0"], "--timeout"),
        (["table1", "--timeout", "nan"], "--timeout"),
        (["generate", "unused", "--seed", "-1"], "--seed"),
        (["query", "--sparql", "select ?x where { ?x created ?y }", "--seed", "-1"],
         "--seed"),
        (["stats", "--seed", "-1"], "--seed"),
        (["mine", "--miner-seed", "-1"], "--miner-seed"),
        (["mine", "--count", "-1"], "--count"),
        (["batch", "--template", "chain", "--count", "0"], "--count"),
        (["table1", "--engines", "WF,XX"], "--engines"),
        (["table1", "--engines", ","], "--engines"),
        (["query", "--sparql", "select ?x where { ?x created ?y }", "--timeout", "inf"],
         "--timeout"),
        (["query", "--sparql", "select ?x where { ?x created ?y }", "--timeout", "1e999"],
         "--timeout"),
        (["batch", "--template", "chain", "--timeout", "inf"], "--timeout"),
        (["table1", "--timeout", "inf"], "--timeout"),
        (["stats", "--scale", "1e15"], "--scale"),
        (["generate", "unused", "--scale", "99999999999999999999"], "--scale"),
        (["batch", "--template", "chain", "--repeat", "99999999999999999999"],
         "--repeat"),
    ],
    ids=["query-timeout-0", "query-timeout-nan", "query-limit", "batch-timeout", "batch-repeat",
         "generate-scale-nan", "query-scale-nan", "stats-scale-inf", "stats-top",
         "table1-runs", "table1-timeout-0", "table1-timeout-nan", "generate-seed",
         "query-seed", "stats-seed", "mine-miner-seed", "mine-count", "batch-count",
         "table1-engines", "table1-engines-empty", "query-timeout-inf",
         "query-timeout-1e999", "batch-timeout-inf", "table1-timeout-inf",
         "stats-scale-1e15", "generate-scale-1e20", "batch-repeat-1e20"],
)
def test_query_and_batch_reject_out_of_range_numbers(monkeypatch, capsys, argv, flag):
    """Refused up front with exit 2, before a store is even loaded or
    generated: no ``Deadline``, ``ValueError`` or ``DatasetError``
    traceback, no silent count-only run or clamp. (Any command, despite
    the name.)"""
    import repro.cli

    def fail(*args, **kwargs):
        raise AssertionError("loaded a store")

    monkeypatch.setattr(repro.cli, "_load", fail)
    monkeypatch.setattr(repro.cli, "generate_yago_like", fail)
    # A later --scale in ``argv`` overrides this one.
    assert main(argv[:1] + ["--scale", "0.05"] + argv[1:]) == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err


#: What each command needs besides the option under test.
_REQUIRED_ARGS = {
    "generate": ["unused"],
    "query": ["--sparql", "select ?x where { ?x created ?y }"],
    "batch": ["--template", "chain"],
    "save": ["unused"],
    "dump": ["unused"],
}
_FLOAT_DOMAINS = {
    domains.seconds, domains.seconds_or_off, domains.milliseconds, domains.scale,
}
#: No numeric option accepts these.
_NEVER_VALID = {"nan", "inf", "1e999", "-1"}


def _domain_cases():
    """``(command, flag, domain, value)`` for every option of every
    subcommand whose ``type=`` is a domain: floats get nan, inf, 1e999,
    -1, 0, 1e20 and 1e15 (above ``MAX_SCALE``), ints -1, 0, 1e20 and
    70000 (above a port), ``--engines`` an unknown name and an empty
    list."""
    parser = build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    for command, sub in commands.choices.items():
        for action in sub._actions:
            if getattr(action.type, "__module__", None) != domains.__name__:
                continue
            flag = action.option_strings[-1]
            if flag == "--engines":
                values = ("WF,XX", ",")
            elif action.type in _FLOAT_DOMAINS:
                values = ("nan", "inf", "1e999", "-1", "0",
                          "99999999999999999999", "1e15")
            else:
                values = ("-1", "0", "99999999999999999999", "70000")
            for value in values:
                yield pytest.param(command, flag, action.type, value,
                                   id=f"{command}{flag}={value}")


@pytest.mark.parametrize("command, flag, domain, value", list(_domain_cases()))
def test_every_numeric_option_refuses_values_outside_its_domain(
    monkeypatch, capsys, command, flag, domain, value
):
    """Generated from ``build_parser()``. A value outside the option's
    domain exits 2 with argparse's usage error naming the option, before
    a dataset is built or a server started; any other value gets past
    parsing (to the stubbed loader, or a cross-option refusal). Any
    other exception fails the test."""
    import repro.cli
    import repro.server

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(repro.cli, "_load", reached)
    monkeypatch.setattr(repro.cli, "generate_yago_like", reached)
    monkeypatch.setattr(repro.server, "serve", reached)
    monkeypatch.setattr(repro.server, "serve_prefork", reached)
    try:
        domain(value)
        refused = False
    except ValueError:
        refused = True
    assert refused or value not in _NEVER_VALID and flag != "--engines"
    try:
        code = main([command, *_REQUIRED_ARGS.get(command, []), flag, value])
    except Reached:
        code = None
    err = capsys.readouterr().err
    if refused:
        assert code == 2
        assert f"argument {flag}: must be" in err and err.startswith("usage:")
    else:
        assert f"argument {flag}" not in err


def test_wal_open_patches_the_stored_catalog_instead_of_rebuilding(tmp_path):
    from repro.cli import _load, build_parser
    from repro.stats.catalog import build_catalog
    from repro.storage import close_store

    snap = journaled_snapshot(tmp_path)  # 2 unfolded records
    args = build_parser().parse_args(["stats", "--snapshot", str(snap), "--wal"])
    store, catalog = _load(args)
    try:
        assert store.catalog_refreshes == {"full": 0, "delta": 1}
        assert catalog == build_catalog(store)
    finally:
        close_store(store)
