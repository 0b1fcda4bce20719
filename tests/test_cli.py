import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scmc import (
    FormatError,
    InternalEvent,
    ParameterError,
    MemoryEvent,
    Params,
    READ,
    Run,
    Trace,
    WRITE,
    build_constraint_graph,
    dumps_jsonl,
    loads_run_jsonl,
)
from scmc import cli
from scmc.cli import (
    Config,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    EXIT_VIOLATION,
    format_event,
    main,
)
from corpus import serial_trace
from fixtures import HallucinatingReadProtocol
from reference_jsonl import reference_loads_run_jsonl
from reference_oracle import permutation_oracle
from strategies import jsonl_texts
from reference_witness import is_cycle_of

W = lambda i, j, d: MemoryEvent(WRITE, i, j, d)
R = lambda i, j, d: MemoryEvent(READ, i, j, d)
ACKX = lambda i, j: InternalEvent("ACKX", (i, j))
ACKS = lambda i, j: InternalEvent("ACKS", (i, j))
UPD = lambda i: InternalEvent("UPD", (i,))


def run_module(
    *args: str, stdout=subprocess.PIPE, env=None, max_memory=None
) -> subprocess.CompletedProcess:
    """`python -m scmc *args` in a child that imports the scmc under test;
    `env` adds to or overrides the child's environment, and `max_memory`
    caps its address space in bytes."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    limit = None
    if max_memory is not None:
        limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (max_memory, max_memory))
    return subprocess.run(
        [sys.executable, "-m", "scmc", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **(env or {})},
        preexec_fn=limit,
    )


TRACE3 = Trace((W(1, 1, 1), R(2, 1, 0), R(2, 1, 1)), Params(2, 1, 1))
VIOLATION4 = Trace(
    (W(1, 1, 1), R(1, 2, 0), W(2, 2, 1), R(2, 1, 0)), Params(2, 2, 1)
)
RUN12 = Run(
    (
        ACKX(2, 2), UPD(2), ACKS(1, 2), ACKX(2, 2), ACKX(1, 1), UPD(1), UPD(1),
        W(1, 1, 1), R(1, 2, 0), UPD(2), W(2, 2, 1), R(2, 1, 0),
    ),
    Params(2, 2, 1),
)


def write_jsonl(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dumps_jsonl(obj), encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    return code, json.loads(capsys.readouterr().out)


class TestCheck:
    def test_buggy_violation_exit_and_payload(self, capsys):
        code, payload = run_json(
            capsys,
            ["check", "--protocol", "piranha-buggy", "--queue-bound", "2", "--k", "2"],
        )
        assert code == EXIT_VIOLATION
        assert payload["result"] == "violation"
        (v,) = payload["verdicts"]
        assert v["result"] == "counterexample"
        assert len(v["run"]) == 12
        assert v["cycle"]["canonical"] is True
        assert v["cycle"]["k"] == 2
        assert v["initial_owners"] is not None
        assert len(v["unambiguous_trace"]) == 4

    def test_correct_all_k_clean(self, capsys):
        code, payload = run_json(capsys, ["check", "--n", "2", "--m", "2"])
        assert code == EXIT_OK
        assert payload["result"] == "no_violation"
        assert [v["k"] for v in payload["verdicts"]] == [1, 2]
        assert all(v["run"] is None for v in payload["verdicts"])

    def test_all_k_follows_min(self, capsys):
        # k runs over 1..min(n, m), so one processor gives k = 1 only
        code, payload = run_json(
            capsys, ["check", "--n", "1", "--m", "3", "--queue-bound", "1", "--k", "all"]
        )
        assert code == EXIT_OK
        assert [v["k"] for v in payload["verdicts"]] == [1]

    def test_text_verdict_lines(self, capsys):
        code = main(["check", "--protocol", "piranha-buggy", "--queue-bound", "2", "--k", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_VIOLATION
        assert "counterexample found; not sequentially consistent" in out
        code = main(["check", "--k", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "sequentially consistent under the simple write order" in out

    def test_k_out_of_range(self, capsys):
        assert main(["check", "--k", "3"]) == EXIT_USAGE
        assert main(["check", "--k", "x"]) == EXIT_USAGE

    def test_max_states_inconclusive(self, capsys):
        code, payload = run_json(
            capsys,
            ["check", "--protocol", "piranha-buggy", "--k", "2", "--max-states", "10"],
        )
        assert code == EXIT_UNDECIDED
        assert payload["result"] == "inconclusive"

    def test_print_config(self, capsys):
        code = main(["check", "--k", "2", "--max-states", "7", "--print-config"])
        assert code == EXIT_OK
        cfg = json.loads(capsys.readouterr().out)
        assert cfg == {
            "protocol": "piranha",
            "n": 2,
            "m": 2,
            "k": 2,
            "queue_bound": 3,
            "max_states": 7,
            "format": "text",
            "output": None,
        }
        assert cfg == Config(k=2, max_states=7).to_json()

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["check", "--k", "1", "--format", "json", "--output", str(out_path)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["result"] == "no_violation"

    def test_too_many_locations_exits_usage(self):
        # packed states keep a location in one byte
        proc = run_module("check", "--n", "1", "--m", "300", "--k", "1", "--queue-bound", "1")
        assert proc.returncode == EXIT_USAGE
        assert "m must be at most 255" in proc.stderr and "Traceback" not in proc.stderr

    def test_unwritable_emit_run(self, tmp_path, capsys):
        target = tmp_path / "missing" / "r.jsonl"
        argv = ["check", "--protocol", "piranha-buggy", "--k", "1", "--queue-bound", "1"]
        assert main(argv + ["--emit-run", str(target)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("scmc: error: cannot write") and "Traceback" not in err

    def test_search_option_removed(self, capsys):
        # breadth-first is the only search order
        with pytest.raises(SystemExit) as exc:
            main(["check", "--search", "bfs"])
        assert exc.value.code == EXIT_USAGE
        assert "--search" in capsys.readouterr().err

    def test_internal_failure_exit(self, monkeypatch, capsys):
        # the fixture's reads conjure values, so the counterexample's shadow
        # replay fails: an internal failure, not a usage error
        monkeypatch.setattr(cli, "make_protocol", lambda *a: HallucinatingReadProtocol(2, 2))
        assert main(["check", "--k", "1"]) == EXIT_INTERNAL
        assert "shadow" in capsys.readouterr().err

    def test_emit_run_chains_into_analyze_and_replay(self, tmp_path, capsys):
        emitted = tmp_path / "cex.jsonl"
        code = main(
            [
                "check", "--protocol", "piranha-buggy", "--queue-bound", "2",
                "--k", "2", "--emit-run", str(emitted), "--format", "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_VIOLATION
        assert payload["emitted_run"] == str(emitted)
        run = loads_run_jsonl(emitted.read_text(encoding="utf-8"))
        assert len(run.events) == 12

        code, analysis = run_json(capsys, ["analyze", str(emitted)])
        assert code == EXIT_VIOLATION
        assert analysis["nice_cycle"]["canonical"] is True

        owners = ",".join(str(o) for o in payload["verdicts"][0]["initial_owners"])
        code = main(
            [
                "replay", str(emitted), "--protocol", "piranha-buggy",
                "--queue-bound", "2", "--owners", owners,
            ]
        )
        capsys.readouterr()
        assert code == EXIT_OK


class TestAnalyze:
    def test_acyclic(self, tmp_path, capsys):
        path = write_jsonl(tmp_path, "t3.jsonl", TRACE3)
        code, payload = run_json(capsys, ["analyze", path])
        assert code == EXIT_OK
        assert payload["analysis"] == "acyclic"
        assert payload["unambiguous"] and payload["causal"]

    def test_cyclic_canonical_2nice(self, tmp_path, capsys):
        path = write_jsonl(tmp_path, "v4.jsonl", VIOLATION4)
        code, payload = run_json(capsys, ["analyze", path])
        assert code == EXIT_VIOLATION
        assert payload["analysis"] == "cyclic"
        assert is_cycle_of(build_constraint_graph(VIOLATION4), payload["cycle_vertices"])
        assert payload["nice_cycle"] == {
            "k": 2,
            "vertices": [1, 2, 3, 4],
            "procs": [1, 2],
            "locs": [2, 1],
            "canonical": True,
        }

    def test_one_nice_cycle(self, tmp_path, capsys):
        trace = Trace((W(1, 1, 1), R(1, 1, 0)), Params(1, 1, 1))
        path = write_jsonl(tmp_path, "t1.jsonl", trace)
        code, payload = run_json(capsys, ["analyze", path])
        assert code == EXIT_VIOLATION
        assert payload["nice_cycle"]["k"] == 1

    def test_long_acyclic_trace(self, long_walk, tmp_path, capsys):
        path = write_jsonl(tmp_path, "long.jsonl", long_walk)
        code, payload = run_json(capsys, ["analyze", path])
        assert code == EXIT_OK
        assert payload["analysis"] == "acyclic"
        assert payload["events"] == 10_000

    def test_ambiguous_skipped(self, tmp_path, capsys):
        trace = Trace((W(1, 1, 1), W(2, 1, 1)), Params(2, 1, 1))
        path = write_jsonl(tmp_path, "amb.jsonl", trace)
        code, payload = run_json(capsys, ["analyze", path])
        assert code == EXIT_UNDECIDED
        assert payload["analysis"] == "skipped"
        assert payload["unambiguous"] is False

    def test_noncausal_skipped(self, tmp_path, capsys):
        trace = Trace((R(1, 1, 5),), Params(1, 1, 5))
        path = write_jsonl(tmp_path, "nc.jsonl", trace)
        code, payload = run_json(capsys, ["analyze", path])
        assert code == EXIT_UNDECIDED
        assert payload["causal"] is False

    def test_empty_trace_is_acyclic(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"n": 2, "m": 2, "v": 2}\n', encoding="utf-8")
        code, payload = run_json(capsys, ["analyze", str(path)])
        assert code == EXIT_OK
        assert payload["analysis"] == "acyclic"
        assert payload["events"] == 0

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(dumps_jsonl(TRACE3)))
        code, payload = run_json(capsys, ["analyze", "-"])
        assert code == EXIT_OK
        assert payload["analysis"] == "acyclic"

    def test_parse_errors_exit_usage(self, tmp_path, capsys):
        missing_header = tmp_path / "bad1.jsonl"
        missing_header.write_text('{"op": "W", "proc": 1, "loc": 1, "data": 1}\n')
        assert main(["analyze", str(missing_header)]) == EXIT_USAGE
        bad_json = tmp_path / "bad2.jsonl"
        bad_json.write_text('{"n": 1, "m": 1, "v": 1}\n{nope\n')
        assert main(["analyze", str(bad_json)]) == EXIT_USAGE
        assert main(["analyze", str(tmp_path / "nope.jsonl")]) == EXIT_USAGE
        capsys.readouterr()

    def test_non_utf8_input_exits_usage(self, tmp_path, capsys, monkeypatch):
        data = b'\xff{"n": 1, "m": 1, "v": 1}\n'
        path = tmp_path / "latin.jsonl"
        path.write_bytes(data)
        assert main(["analyze", str(path)]) == EXIT_USAGE
        assert "not UTF-8" in capsys.readouterr().err
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert main(["analyze", "-"]) == EXIT_USAGE
        assert "not UTF-8" in capsys.readouterr().err

    def test_deeply_nested_json_exits_usage(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text(
            '{"n": 1, "m": 1, "v": 1}\n' + "[" * 100_000 + "]" * 100_000 + "\n",
            encoding="utf-8",
        )
        proc = run_module("analyze", str(path))
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        assert "line 2: invalid JSON (nested too deeply)" in proc.stderr

    def test_huge_declared_location_count(self, tmp_path, capsys):
        # the graph's tables cover the locations the events use, not 1..m
        trace = Trace((W(1, 1, 1), R(1, 1, 1)), Params(1, 10**9, 1))
        path = write_jsonl(tmp_path, "wide.jsonl", trace)
        start = time.perf_counter()
        code, payload = run_json(capsys, ["analyze", path])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK
        assert (payload["m"], payload["analysis"]) == (10**9, "acyclic")

    def test_unwritable_output(self, tmp_path, capsys):
        path = write_jsonl(tmp_path, "t3.jsonl", TRACE3)
        target = tmp_path / "missing" / "x.json"
        assert main(["analyze", path, "--output", str(target)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("scmc: error: cannot write") and "Traceback" not in err


class TestOracle:
    def test_witness_found(self, tmp_path, capsys):
        path = write_jsonl(tmp_path, "t3.jsonl", TRACE3)
        code, payload = run_json(capsys, ["oracle", path])
        assert code == EXIT_OK
        assert payload["sc"] is True
        assert payload["witness"] == [2, 1, 3]

    def test_violation_refused(self, tmp_path, capsys):
        path = write_jsonl(tmp_path, "v4.jsonl", VIOLATION4)
        code, payload = run_json(capsys, ["oracle", path])
        assert code == EXIT_VIOLATION
        assert payload["sc"] is False
        assert payload["witness"] is None

    def test_engines_agree(self, tmp_path, capsys):
        # the reference scans every permutation (tests/reference_oracle.py)
        for name, trace in (("t3.jsonl", TRACE3), ("v4.jsonl", VIOLATION4)):
            path = write_jsonl(tmp_path, name, trace)
            code, payload = run_json(capsys, ["oracle", path])
            reference = permutation_oracle(trace)
            assert code == (EXIT_OK if reference else EXIT_VIOLATION)
            assert payload["witness"] == (list(reference.f) if reference else None)

    def test_bound_undecided(self, tmp_path, capsys):
        trace = Trace(tuple(R(1, 1, 0) for _ in range(11)), Params(1, 1, 1))
        path = write_jsonl(tmp_path, "long.jsonl", trace)
        code, payload = run_json(capsys, ["oracle", path])
        assert code == EXIT_UNDECIDED
        assert payload["sc"] is None
        code, payload = run_json(capsys, ["oracle", path, "--bound", "11"])
        assert code == EXIT_OK

    def test_negative_bound_is_usage_error(self, tmp_path, capsys):
        path = write_jsonl(tmp_path, "empty.jsonl", Trace((), Params(1, 1, 1)))
        assert main(["oracle", path, "--bound", "-1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "oracle bound must be >= 0" in captured.err

    def test_long_trace_within_bound(self, tmp_path):
        # 1,200 events: deeper than the interpreter's default recursion limit
        path = write_jsonl(tmp_path, "serial.jsonl", serial_trace(600))
        proc = run_module("oracle", path, "--bound", "2000", "--format", "json")
        assert "Traceback" not in proc.stderr
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["witness"] == list(range(1, 1201))

    def test_engine_option_removed(self, capsys):
        # the interleaving search is the only oracle engine
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "x.jsonl", "--engine", "permutations"])
        assert exc.value.code == EXIT_USAGE
        assert "--engine" in capsys.readouterr().err


class TestReplay:
    def test_twelve_event_run_on_buggy(self, tmp_path, capsys):
        path = write_jsonl(tmp_path, "run12.jsonl", RUN12)
        code, payload = run_json(
            capsys,
            ["replay", path, "--protocol", "piranha-buggy", "--owners", "1,1",
             "--unambiguous"],
        )
        assert code == EXIT_OK
        assert payload["ok"] is True
        cache = payload["final_state"]["cache"]
        assert cache[0][0] == {"data": 1, "status": "EXC"}
        assert cache[1][1] == {"data": 1, "status": "EXC"}
        assert payload["unambiguous_trace"] == [
            {"op": "W", "proc": 1, "loc": 1, "data": 1},
            {"op": "R", "proc": 1, "loc": 2, "data": 0},
            {"op": "W", "proc": 2, "loc": 2, "data": 1},
            {"op": "R", "proc": 2, "loc": 1, "data": 0},
        ]

    def test_correct_variant_rejects(self, tmp_path, capsys):
        path = write_jsonl(tmp_path, "run12.jsonl", RUN12)
        code, payload = run_json(
            capsys, ["replay", path, "--protocol", "piranha", "--owners", "1,1"]
        )
        assert code == EXIT_VIOLATION
        assert payload["ok"] is False
        assert payload["failed_at"] == 4

    def test_owner_validation(self, tmp_path, capsys):
        path = write_jsonl(tmp_path, "run12.jsonl", RUN12)
        assert main(["replay", path, "--owners", "9,9"]) == EXIT_USAGE
        assert main(["replay", path, "--owners", "1"]) == EXIT_USAGE
        assert main(["replay", path, "--owners", "a,b"]) == EXIT_USAGE
        capsys.readouterr()

    def test_too_many_locations_exits_usage(self, tmp_path):
        # the protocol refuses m before it builds its per-location tables,
        # which would take gigabytes at this m; the cap makes a regression
        # fail with MemoryError instead
        run = Run((W(1, 1, 1),), Params(1, 10_000_000, 1))
        path = write_jsonl(tmp_path, "wide.jsonl", run)
        proc = run_module("replay", path, max_memory=1 << 30)
        assert proc.returncode == EXIT_USAGE
        assert "m must be at most 255" in proc.stderr and "Traceback" not in proc.stderr


class TestValidateAssumptions:
    def test_piranha_clean(self, capsys):
        code, payload = run_json(
            capsys,
            ["validate-assumptions", "--depth", "4"],
        )
        assert code == EXIT_OK
        assert payload["ok"] is True
        assert payload["causality_violations"] == []
        assert payload["symmetry_violations"] == []
        assert payload["nodes"] > 0 and payload["symmetry_checks"] > 0

    @pytest.mark.parametrize("flag", ["--samples", "--max-perms"])
    def test_sampling_flags_removed(self, flag, capsys):
        # the sample sizes are fixed in checker.validate_assumptions
        with pytest.raises(SystemExit) as exc:
            main(["validate-assumptions", "--depth", "1", flag, "40"])
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 40" in capsys.readouterr().err


JSON_KEYS = {
    "check": ["config", "verdicts", "result", "emitted_run"],
    "analyze": [
        "events", "n", "m", "unambiguous", "causal", "analysis",
        "cycle_vertices", "nice_cycle", "verdict",
    ],
    "oracle": ["events", "bound", "sc", "witness", "verdict"],
    "replay": [
        "protocol", "events", "initial_owners", "ok", "failed_at",
        "final_state", "unambiguous_trace",
    ],
    "validate-assumptions": [
        "depth", "nodes", "edges", "causality_violations", "runs_sampled",
        "symmetry_checks", "symmetry_violations", "ok",
    ],
}


@pytest.mark.parametrize("command", sorted(JSON_KEYS))
def test_json_payload_keys(command, tmp_path, capsys):
    # the top-level keys of each --format json payload, in order
    trace = write_jsonl(tmp_path, "t3.jsonl", TRACE3)
    argv = {
        "check": ["check", "--n", "1", "--m", "1", "--queue-bound", "1"],
        "analyze": ["analyze", trace],
        "oracle": ["oracle", trace],
        "replay": [
            "replay", write_jsonl(tmp_path, "run12.jsonl", RUN12),
            "--protocol", "piranha-buggy", "--unambiguous",
        ],
        "validate-assumptions": ["validate-assumptions", "--depth", "1"],
    }[command]
    _code, payload = run_json(capsys, argv)
    assert list(payload) == JSON_KEYS[command]


class TestParserContract:
    def test_no_command_exits_usage(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_command_exits_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_format_event_strings(self):
        assert format_event(W(1, 2, 3)) == "W(1,2,3)"
        assert format_event(UPD(2)) == "UPD(2)"
        assert format_event(ACKS(1, 2)) == "ACKS(1,2)"

    def test_module_entry_point(self):
        proc = run_module("check", "--k", "1", "--n", "1", "--m", "1", "--queue-bound", "1")
        assert proc.returncode == EXIT_OK
        assert "no violation" in proc.stdout

    def test_console_script_usage_error(self):
        proc = run_module("check", "--queue-bound", "x")
        assert proc.returncode == EXIT_USAGE


class TestClosedStdout:
    """A reader that has gone away ends the output, not the command."""

    # a buffered stdout fails when it is flushed, an unbuffered one at print
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("trace, code", [(TRACE3, EXIT_OK), (VIOLATION4, EXIT_VIOLATION)])
    def test_exit_code_is_the_verdicts(self, tmp_path, trace, code, unbuffered):
        path = write_jsonl(tmp_path, "t.jsonl", trace)
        read_end, write_end = os.pipe()
        os.close(read_end)  # before the child starts: its first write fails
        try:
            proc = run_module("analyze", path, "--format", "json", stdout=write_end,
                              env={"PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(write_end)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr


class TestSharedParser:
    """main parses with one parser per process; no call leaves state in it."""

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_parser_built_once(self, tmp_path, capsys, monkeypatch):
        path = write_jsonl(tmp_path, "t3.jsonl", TRACE3)
        assert main(["analyze", path]) == EXIT_OK

        def unexpected():
            raise AssertionError("main built a second parser")

        monkeypatch.setattr(cli, "build_parser", unexpected)
        assert main(["analyze", path]) == EXIT_OK

    def test_check_flags_do_not_outlive_their_call(self, capsys):
        argv = ["check", "--n", "3", "--m", "2", "--k", "1", "--queue-bound", "1",
                "--max-states", "50", "--format", "json"]
        assert main(argv) == EXIT_UNDECIDED
        capsys.readouterr()
        assert main(["check", "--print-config"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == Config().to_json()

    def test_usage_error_then_analyze_matches_a_fresh_call(self, tmp_path, capsys):
        path = write_jsonl(tmp_path, "v4.jsonl", VIOLATION4)
        argv = ["analyze", path, "--format", "json"]
        cli._shared_parser.cache_clear()
        fresh = main(argv), capsys.readouterr()
        usage_errors = (
            ["analyze"],
            ["analyze", path, "--format", "xml"],
            ["analyze", path, "--bogus"],
            ["check", "--n", "x"],
            ["frobnicate"],
        )
        for bad in usage_errors:
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == EXIT_USAGE
            capsys.readouterr()
            assert (main(argv), capsys.readouterr()) == fresh


class TestFuzzedInput:
    @given(data=st.one_of(
        jsonl_texts().map(str.encode), st.text().map(str.encode), st.binary(max_size=64)
    ))
    def test_bad_input_exits_usage(self, tmp_path_factory, data):
        # the decoder raises only FormatError or ParameterError, and the
        # command maps either to exit 3; input that decodes gets a verdict
        path = tmp_path_factory.getbasetemp() / "fuzzed.jsonl"
        path.write_bytes(data)
        try:
            reference_loads_run_jsonl(data.decode("utf-8"))
            bad = False
        except (UnicodeDecodeError, FormatError, ParameterError):
            bad = True
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", str(path)])
        if bad:
            assert code == EXIT_USAGE
            assert err.getvalue().startswith("scmc: error: ")
        else:
            assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_UNDECIDED)
            assert err.getvalue() == ""
