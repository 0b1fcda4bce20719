"""The four workloads: seeded operations and the gate each output must pass.

An operation is one call a user or library caller makes: `scmc check` or
`scmc analyze` run as `cli.main` in-process, or the library calls an oracle
cross-check makes on one short trace.  `run` is timed; `check` is not, and
raises `GateError` when the output is wrong.  Timed code reaches scmc
through module attributes, so installed trace wrappers see it; gates use
the functions imported here, which are never wrapped.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
from scmc import analysis, cli, witness
from scmc.analysis import is_serial, respects_program_order
from scmc.events import dumps_jsonl
from scmc.protocol import make_protocol
from scmc.witness import NiceCycle, build_constraint_graph, verify_nice_cycle

# Written by record_expected.py; absent only while that script records it.
_EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
EXPECTED = (json.loads(_EXPECTED_PATH.read_text()) if _EXPECTED_PATH.exists()
            else {"check": {}, "counts": {}})

# (protocol, n, m, queue bound, k).  check-verify closes the product;
# check-bugfind stops at the first (BFS, shortest) counterexample.
CHECK_CONFIGS = {
    "check-verify": (
        ("piranha", 2, 2, 3, 1),
        ("piranha", 2, 2, 3, 2),
        ("piranha", 2, 3, 1, 2),
        ("piranha", 3, 2, 1, 1),
    ),
    "check-bugfind": (
        ("piranha-buggy", 2, 2, 3, 2),
        ("piranha-buggy", 3, 2, 1, 1),
        ("piranha-buggy", 2, 3, 1, 2),
    ),
}

# The check workloads' inputs are only configurations, so their set-up runs
# this, the smallest check-verify configuration, once as a gated warm-up.
WARMUP_CONFIG = ("piranha", 2, 2, 3, 1)

# analyze-long: walks of the correct protocol at n = m = 3.  Each class is
# sized so that it takes about half of a round.
ANALYZE_PROTOCOL = ("piranha", 3, 3)
SC_TRACES, SC_EVENTS = 10, 250
VIOLATING_TRACES, VIOLATING_PREFIX_EVENTS = 10, 120

# oracle-short: half synthetic traces, half walks of both protocol variants.
ORACLE_TRACES, ORACLE_MAX_EVENTS = 2000, 10


class GateError(Exception):
    """An operation's output differs from the correct one."""


@dataclass
class Op:
    label: str  # identifies the operation; rounds repeat the same labels
    cls: str  # class whose per-operation times are reported together
    work: int  # product states or traces processed
    run: Callable[[], object]
    check: Callable[[object], dict]  # returns the exact counts of the output


def _gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def config_label(config) -> str:
    protocol, n, m, q, k = config
    return f"{protocol} {n}x{m} Q{q} k={k}"


def check_argv(config) -> list[str]:
    protocol, n, m, q, k = config
    return ["check", "--protocol", protocol, "--n", str(n), "--m", str(m),
            "--queue-bound", str(q), "--k", str(k), "--format", "json"]


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _check_op(config) -> Op:
    label = config_label(config)
    want = EXPECTED["check"][label]
    argv = check_argv(config)

    def check(out) -> dict:
        code, text = out
        _gate(code == want["exit"], f"{label}: exit {code}, expected {want['exit']}")
        verdict = json.loads(text)["verdicts"][0]
        _gate(verdict == want["verdict"], f"{label}: verdict differs from the recorded one")
        return {key: verdict[key] for key in ("states", "transitions", "max_depth")}

    return Op(label, label, want["verdict"]["states"], lambda: run_cli(argv), check)


def _analyze_op(label: str, cls: str, trace, path: Path) -> Op:
    path.write_text(dumps_jsonl(trace), encoding="utf-8")
    argv = ["analyze", str(path), "--format", "json"]

    def check(out) -> dict:
        code, text = out
        payload = json.loads(text)
        if cls == "sc":
            _gate(code == 0 and payload["analysis"] == "acyclic", f"{label}: not acyclic")
            return {}
        _gate(code == 1 and payload["analysis"] == "cyclic", f"{label}: not cyclic")
        nice = payload["nice_cycle"]
        _gate(nice is not None and nice["k"] == 2, f"{label}: no 2-nice cycle")
        cycle = NiceCycle(tuple(nice["vertices"]), tuple(nice["procs"]),
                          tuple(nice["locs"]), nice["canonical"])
        _gate(verify_nice_cycle(build_constraint_graph(trace), cycle),
              f"{label}: reported nice cycle does not verify")
        return {}

    return Op(label, cls, 1, lambda: run_cli(argv), check)


def oracle_cross_check(trace):
    """The library calls of one cross-check: oracle, graph, cycle, nice cycle."""
    serial = analysis.check_sc_oracle(trace)
    graph = witness.build_constraint_graph(trace)
    return serial, witness.find_cycle(graph), witness.find_minimal_nice_cycle(graph)


def _oracle_op(label: str, cls: str, trace) -> Op:
    def check(out) -> dict:
        serial, cyc, nice = out
        if cyc is None:
            # acyclic implies SC: the oracle must produce a valid witness
            _gate(nice is None, f"{label}: nice cycle in an acyclic graph")
            _gate(serial is not None, f"{label}: acyclic but the oracle finds it not SC")
            _gate(respects_program_order(trace, serial.f) and is_serial(serial.apply(trace)),
                  f"{label}: oracle witness is not a serial program-order reordering")
        else:
            # cyclic but SC is legal under the simple write order
            _gate(nice is not None and verify_nice_cycle(build_constraint_graph(trace), nice),
                  f"{label}: cycle without a verified nice cycle")
        return {}

    return Op(label, cls, 1, lambda: oracle_cross_check(trace), check)


def warmup(workload: str) -> list[Op]:
    """Operations the set-up runs once before measuring: a check on WARMUP_CONFIG."""
    return [_check_op(WARMUP_CONFIG)] if workload in CHECK_CONFIGS else []


def build(workload: str, seed: int, scratch: Path) -> list[Op]:
    """The operations of one round, generated from the seed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload in CHECK_CONFIGS:
        configs = list(CHECK_CONFIGS[workload])
        rng.shuffle(configs)
        return [_check_op(config) for config in configs]
    if workload == "analyze-long":
        protocol = make_protocol(*ANALYZE_PROTOCOL)
        ops = []
        for i in range(SC_TRACES):
            trace = gen.protocol_walk(rng, protocol, SC_EVENTS)
            ops.append(_analyze_op(f"sc{i}", "sc", trace, scratch / f"sc{i}.jsonl"))
        for i in range(VIOLATING_TRACES):
            trace = None
            while trace is None:
                prefix = gen.protocol_walk(rng, protocol, VIOLATING_PREFIX_EVENTS)
                trace = gen.store_buffer_tail(rng, prefix)
            ops.append(_analyze_op(f"violating{i}", "violating", trace,
                                   scratch / f"violating{i}.jsonl"))
        rng.shuffle(ops)
        return ops
    if workload == "oracle-short":
        protocols = [make_protocol(name, n, m) for name in ("piranha", "piranha-buggy")
                     for n in (2, 3) for m in (2, 3)]
        ops = []
        for i in range(ORACLE_TRACES):
            length = rng.randint(1, ORACLE_MAX_EVENTS)
            if i % 2:
                trace = gen.synthetic_trace(rng, rng.randint(1, 3), rng.randint(1, 3), length)
                ops.append(_oracle_op(f"synthetic{i}", "synthetic", trace))
            else:
                trace = gen.protocol_walk(rng, rng.choice(protocols), length)
                ops.append(_oracle_op(f"walk{i}", "walk", trace))
        return ops
    raise ValueError(f"unknown workload {workload!r}")
