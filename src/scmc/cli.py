"""Command-line front end.

Subcommands: check (product model checking), analyze (constraint-graph
analysis of a trace file), oracle (exhaustive sequential-consistency
decision for short traces), replay (run a recorded event sequence on a
protocol), validate-assumptions (bounded causality/symmetry validation).

Exit codes are a stable contract: 0 = verified / consistent / clean,
1 = violation found, 2 = undecided (state or size bound hit, or analysis
skipped for an out-of-scope trace), 3 = usage or parse error, 4 = internal
failure (a produced certificate failed verification, or the protocol proved
not data independent).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from .analysis import ORACLE_BOUND_DEFAULT, check_sc_oracle, is_causal, is_unambiguous
from .checker import (
    COUNTEREXAMPLE,
    DEFAULT_MAX_STATES,
    INCONCLUSIVE,
    Verdict,
    model_check,
    validate_assumptions,
)
from .errors import (
    DataIndependenceError,
    FormatError,
    OracleBoundError,
    ParameterError,
    PreconditionError,
    ReplayError,
    ScmcError,
    SoundnessError,
)
from .events import (
    Event,
    MemoryEvent,
    Run,
    dumps_jsonl,
    loads_run_jsonl,
    project_trace,
)
from .protocol import (
    MSG_NAMES,
    PROTOCOL_NAMES,
    STATUS_NAMES,
    DEFAULT_QUEUE_BOUND,
    PiranhaState,
    make_protocol,
    replay,
    replay_unambiguous,
)
from .witness import build_constraint_graph, find_cycle, find_minimal_nice_cycle

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


@dataclass(frozen=True)
class Config:
    """Resolved settings for a `check` invocation; every default lives here."""

    protocol: str = "piranha"
    n: int = 2
    m: int = 2
    k: Union[int, str] = "all"
    queue_bound: int = DEFAULT_QUEUE_BOUND
    max_states: int = DEFAULT_MAX_STATES
    format: str = "text"
    output: Optional[str] = None

    def to_json(self) -> dict:
        return asdict(self)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the exit-code contract reserves 2 for
    undecided verdicts, so usage errors are remapped to 3."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def format_event(e: Event) -> str:
    if isinstance(e, MemoryEvent):
        return f"{e.op}({e.proc},{e.loc},{e.data})"
    return f"{e.label}({','.join(str(p) for p in e.params)})"


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc


def _emit(payload: dict, text_lines: list[str], fmt: str, output: Optional[str]) -> None:
    body = json.dumps(payload, indent=2) if fmt == "json" else "\n".join(text_lines)
    if output:
        _write(output, body + "\n")
    else:
        print(body)


def _read_input(path: str) -> str:
    """The text of path, or of stdin for "-", decoded as strict UTF-8."""
    if path == "-":
        data = getattr(sys.stdin, "buffer", sys.stdin).read()
    else:
        data = Path(path).read_bytes()
    return data if isinstance(data, str) else data.decode("utf-8")


def _load_run(path: str) -> Run:
    try:
        text = _read_input(path)
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        source = "standard input" if path == "-" else path
        raise FormatError(f"{source} is not UTF-8 text: byte {exc.start} is invalid") from None
    return loads_run_jsonl(text)


def state_to_json(state: PiranhaState) -> dict:
    return {
        "cache": [
            [{"data": d, "status": STATUS_NAMES[s]} for (d, s) in row]
            for row in state.cache
        ],
        "owner": list(state.owner),
        "queues": [
            [
                {"msg": MSG_NAMES[msg.kind], "addr": msg.addr, "data": msg.data}
                for msg in q
            ]
            for q in state.inq
        ],
    }


def cmd_check(config: Config, emit_run: Optional[str] = None) -> int:
    protocol = make_protocol(config.protocol, config.n, config.m, config.queue_bound)
    k_max = min(config.n, config.m)
    ks = list(range(1, k_max + 1)) if config.k == "all" else [int(config.k)]
    # model_check rejects a k outside 1..k_max
    verdicts: list[Verdict] = [model_check(protocol, k, max_states=config.max_states) for k in ks]
    results = [v.result for v in verdicts]
    if COUNTEREXAMPLE in results:
        overall, code = "violation", EXIT_VIOLATION
    elif INCONCLUSIVE in results:
        overall, code = "inconclusive", EXIT_UNDECIDED
    else:
        overall, code = "no_violation", EXIT_OK

    emitted = None
    if emit_run is not None:
        witness_v = next((v for v in verdicts if v.result == COUNTEREXAMPLE), None)
        if witness_v is not None:
            _write(emit_run, dumps_jsonl(witness_v.run))
            emitted = emit_run

    lines = []
    for v in verdicts:
        lines.append(
            f"k={v.k}: {v.result}; {v.states} states, {v.transitions} transitions,"
            f" depth {v.max_depth}"
        )
        if v.result == COUNTEREXAMPLE:
            lines.append(f"  run ({len(v.run)} events): "
                         + " ".join(format_event(e) for e in v.run.events))
            lines.append("  unambiguous trace: "
                         + " ".join(format_event(e) for e in v.trace.events))
            c = v.cycle
            lines.append(
                f"  cycle: {'canonical ' if c.canonical else ''}{c.k}-nice,"
                f" vertices {c.vertices}, procs {c.procs}, locs {c.locs}"
            )
    if overall == "violation":
        lines.append("verdict: counterexample found; not sequentially consistent")
    elif overall == "inconclusive":
        lines.append("verdict: inconclusive; state bound exceeded before closure")
    else:
        ks_txt = f"k in 1..{k_max}" if config.k == "all" else f"k = {ks[0]}"
        lines.append(
            f"verdict: no violation for {ks_txt};"
            " sequentially consistent under the simple write order"
        )
    if emitted:
        lines.append(f"counterexample run written to {emitted}")
    payload = {
        "config": config.to_json(),
        "verdicts": [v.to_json() for v in verdicts],
        "result": overall,
        "emitted_run": emitted,
    }
    _emit(payload, lines, config.format, config.output)
    return code


def cmd_analyze(path: str, fmt: str, output: Optional[str]) -> int:
    run = _load_run(path)
    trace = project_trace(run)
    try:
        graph = build_constraint_graph(trace)  # checks both preconditions first
        unamb = causal = True
    except PreconditionError:
        graph = None
        unamb, causal = is_unambiguous(trace), is_causal(trace)
    payload: dict = {
        "events": len(trace),
        "n": trace.params.n,
        "m": trace.params.m,
        "unambiguous": unamb,
        "causal": causal,
        "analysis": None,
        "cycle_vertices": None,
        "nice_cycle": None,
        "verdict": None,
    }
    lines = [
        f"trace: {len(trace)} memory events, n={trace.params.n}, m={trace.params.m}",
        f"unambiguous: {'yes' if unamb else 'no'}",
        f"causal: {'yes' if causal else 'no'}",
    ]
    if graph is None:
        payload["analysis"] = "skipped"
        payload["verdict"] = "analysis skipped; trace outside the unambiguous causal class"
        lines.append(payload["verdict"])
        _emit(payload, lines, fmt, output)
        return EXIT_UNDECIDED
    cyc = find_cycle(graph)
    if cyc is None:
        payload["analysis"] = "acyclic"
        payload["verdict"] = (
            "acyclic; sequentially consistent under the simple write order"
        )
        lines.append(payload["verdict"])
        _emit(payload, lines, fmt, output)
        return EXIT_OK
    payload["analysis"] = "cyclic"
    payload["cycle_vertices"] = list(cyc)
    lines.append(f"cycle: vertices {cyc}")
    nice = find_minimal_nice_cycle(graph)
    if nice is not None:
        payload["nice_cycle"] = nice.to_json()
        payload["verdict"] = (
            f"{'canonical ' if nice.canonical else ''}{nice.k}-nice cycle found;"
            " not sequentially consistent under the simple write order"
        )
        lines.append(
            f"nice cycle: k={nice.k}, vertices {nice.vertices},"
            f" procs {nice.procs}, locs {nice.locs}"
            f"{', canonical' if nice.canonical else ''}"
        )
    else:
        payload["verdict"] = "cycle found; not sequentially consistent under the simple write order"
    lines.append(payload["verdict"])
    _emit(payload, lines, fmt, output)
    return EXIT_VIOLATION


def cmd_oracle(path: str, bound: int, engine: str, fmt: str, output: Optional[str]) -> int:
    run = _load_run(path)
    trace = project_trace(run)
    payload: dict = {
        "events": len(trace),
        "bound": bound,
        "engine": engine,
        "sc": None,
        "witness": None,
        "verdict": None,
    }
    lines = [f"trace: {len(trace)} memory events"]
    try:
        witness = check_sc_oracle(trace, bound=bound, engine=engine)
    except OracleBoundError as exc:
        payload["verdict"] = str(exc)
        lines.append(f"undecided: {exc}")
        _emit(payload, lines, fmt, output)
        return EXIT_UNDECIDED
    if witness is None:
        payload["sc"] = False
        payload["verdict"] = "not sequentially consistent"
        lines.append(payload["verdict"])
        _emit(payload, lines, fmt, output)
        return EXIT_VIOLATION
    payload["sc"] = True
    payload["witness"] = list(witness.f)
    payload["verdict"] = "sequentially consistent"
    lines.append(f"witness f = {witness.f}")
    lines.append(payload["verdict"])
    _emit(payload, lines, fmt, output)
    return EXIT_OK


def _parse_owners(text: Optional[str], n: int, m: int) -> tuple[int, ...]:
    if text is None:
        return (1,) * m
    try:
        owners = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"bad owner vector {text!r}: {exc}") from exc
    if len(owners) != m:
        raise ParameterError(f"owner vector needs {m} entries, got {len(owners)}")
    for o in owners:
        if not 1 <= o <= n:
            raise ParameterError(f"owner {o} outside 1..{n}")
    return owners


def cmd_replay(
    path: str,
    protocol_name: str,
    owners_text: Optional[str],
    queue_bound: int,
    unambiguous: bool,
    fmt: str,
    output: Optional[str],
) -> int:
    run = _load_run(path)
    n, m = run.params.n, run.params.m
    protocol = make_protocol(protocol_name, n, m, queue_bound)
    owners = _parse_owners(owners_text, n, m)
    initial = protocol.initial_state(owners)
    payload: dict = {
        "protocol": protocol_name,
        "events": len(run.events),
        "initial_owners": list(owners),
        "ok": None,
        "failed_at": None,
        "final_state": None,
        "unambiguous_trace": None,
    }
    lines = [f"replaying {len(run.events)} events on {protocol_name}, owners {owners}"]
    try:
        final = replay(protocol, run, initial)
    except ReplayError as exc:
        payload["ok"] = False
        payload["failed_at"] = exc.index
        lines.append(f"replay failed at event index {exc.index}: {exc}")
        _emit(payload, lines, fmt, output)
        return EXIT_VIOLATION
    payload["ok"] = True
    payload["final_state"] = state_to_json(final)
    lines.append("replay succeeded")
    for i, row in enumerate(final.cache, 1):
        cells = " ".join(
            f"loc{j}=({d},{STATUS_NAMES[s]})" for j, (d, s) in enumerate(row, 1)
        )
        lines.append(f"  cache[{i}]: {cells}")
    lines.append(f"  owner: {final.owner}")
    if unambiguous:
        trace = replay_unambiguous(protocol, run, initial)
        payload["unambiguous_trace"] = [
            {"op": e.op, "proc": e.proc, "loc": e.loc, "data": e.data}
            for e in trace.events
        ]
        lines.append(
            "unambiguous trace: " + " ".join(format_event(e) for e in trace.events)
        )
    _emit(payload, lines, fmt, output)
    return EXIT_OK


def cmd_validate_assumptions(
    protocol_name: str,
    n: int,
    m: int,
    queue_bound: int,
    depth: int,
    samples: int,
    max_perms: int,
    fmt: str,
    output: Optional[str],
) -> int:
    protocol = make_protocol(protocol_name, n, m, queue_bound)
    report = validate_assumptions(
        protocol, depth=depth, run_samples=samples, max_perms=max_perms
    )
    lines = [
        f"explored {report.nodes} nodes / {report.edges} edges to depth {report.depth}",
        f"causality violations: {len(report.causality_violations)}",
        f"symmetry checks: {report.symmetry_checks} on {report.runs_sampled} runs,"
        f" violations: {len(report.symmetry_violations)}",
    ]
    for v in report.causality_violations[:5]:
        lines.append(
            f"  causality: event {v.index} "
            f"{format_event(v.run.events[v.index - 1])} reads a value never written"
        )
    for v in report.symmetry_violations[:5]:
        lines.append(
            f"  symmetry: {v.kind} permutation {v.perm} fails to replay at event {v.failed_at}"
        )
    lines.append("ok" if report.ok else "violations found")
    _emit(report.to_json(), lines, fmt, output)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scmc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--output", metavar="PATH", default=None,
                        help="write the report to PATH instead of stdout")

    p = sub.add_parser("check", parents=[common],
                       help="model-check a protocol against the cycle monitors")
    p.add_argument("--protocol", choices=PROTOCOL_NAMES, default="piranha")
    p.add_argument("--n", type=int, default=2, help="processor count")
    p.add_argument("--m", type=int, default=2, help="location count")
    p.add_argument("--k", default="all",
                   help="cycle size to check, or 'all' for 1..min(n,m)")
    p.add_argument("--queue-bound", type=int, default=DEFAULT_QUEUE_BOUND)
    p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    p.add_argument("--emit-run", metavar="PATH", default=None,
                   help="write the first counterexample run to PATH as JSON lines")
    p.add_argument("--print-config", action="store_true",
                   help="print the resolved configuration and exit")

    p = sub.add_parser("analyze", parents=[common],
                       help="constraint-graph analysis of a trace file")
    p.add_argument("trace", help="JSON-lines trace/run file, or - for stdin")

    p = sub.add_parser("oracle", parents=[common],
                       help="decide sequential consistency of a short trace exhaustively")
    p.add_argument("trace", help="JSON-lines trace/run file, or - for stdin")
    p.add_argument("--bound", type=int, default=ORACLE_BOUND_DEFAULT)
    p.add_argument("--engine", choices=("interleaving", "permutations"),
                   default="interleaving")

    p = sub.add_parser("replay", parents=[common],
                       help="replay a recorded run on a protocol")
    p.add_argument("run", help="JSON-lines run file, or - for stdin")
    p.add_argument("--protocol", choices=PROTOCOL_NAMES, default="piranha")
    p.add_argument("--owners", default=None,
                   help="comma-separated initial owner per location (default: all 1)")
    p.add_argument("--queue-bound", type=int, default=DEFAULT_QUEUE_BOUND)
    p.add_argument("--unambiguous", action="store_true",
                   help="also derive the fresh-value trace of the run")

    p = sub.add_parser("validate-assumptions", parents=[common],
                       help="bounded causality and symmetry validation of a protocol")
    p.add_argument("--protocol", choices=PROTOCOL_NAMES, default="piranha")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--queue-bound", type=int, default=DEFAULT_QUEUE_BOUND)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--max-perms", type=int, default=6)
    return parser


def _parse_k(value) -> Union[int, str]:
    if value == "all":
        return "all"
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ParameterError(f"k must be an integer or 'all', got {value!r}") from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            config = Config(
                protocol=args.protocol,
                n=args.n,
                m=args.m,
                k=_parse_k(args.k),
                queue_bound=args.queue_bound,
                max_states=args.max_states,
                format=args.format,
                output=args.output,
            )
            if args.print_config:
                print(json.dumps(config.to_json(), indent=2))
                return EXIT_OK
            return cmd_check(config, emit_run=args.emit_run)
        if args.command == "analyze":
            return cmd_analyze(args.trace, args.format, args.output)
        if args.command == "oracle":
            return cmd_oracle(args.trace, args.bound, args.engine, args.format, args.output)
        if args.command == "replay":
            return cmd_replay(
                args.run,
                args.protocol,
                args.owners,
                args.queue_bound,
                args.unambiguous,
                args.format,
                args.output,
            )
        if args.command == "validate-assumptions":
            return cmd_validate_assumptions(
                args.protocol,
                args.n,
                args.m,
                args.queue_bound,
                args.depth,
                args.samples,
                args.max_perms,
                args.format,
                args.output,
            )
        raise ParameterError(f"unknown command {args.command!r}")
    except (SoundnessError, DataIndependenceError) as exc:
        print(f"scmc: error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ScmcError as exc:
        print(f"scmc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
