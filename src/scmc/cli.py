"""Command-line front end.

Subcommands: check (product model checking), analyze (constraint-graph
analysis of a trace file), oracle (exhaustive sequential-consistency
decision for short traces), replay (run a recorded event sequence on a
protocol), validate-assumptions (bounded causality/symmetry validation; it
checks every protocol state it reaches against each swap of two adjacent
processors or locations, see `checker.validate_assumptions`).

Each subparser names its handler, a `cmd_*` function that takes the parsed
namespace; `main` parses, calls the handler and maps errors to exit codes.
The `check` flags take their defaults from `Config`.

Exit codes are a stable contract: 0 = verified / consistent / clean,
1 = violation found, 2 = undecided (state or size bound hit, or analysis
skipped for an out-of-scope trace), 3 = usage or parse error, 4 = internal
failure (a produced certificate failed verification, or the protocol proved
not data independent).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence, Union

from .analysis import ORACLE_BOUND_DEFAULT, check_sc_oracle, is_causal, is_unambiguous
from .checker import (
    COUNTEREXAMPLE,
    DEFAULT_MAX_STATES,
    DEFAULT_VALIDATION_DEPTH,
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
    event_to_json,
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


def _print(text: str) -> None:
    """Print to stdout; a reader that has gone away does not fail the command.

    After a BrokenPipeError (`scmc analyze t.jsonl | head -1`) the command
    still exits with its verdict's code.  stdout is pointed at os.devnull so
    that the interpreter's flush at exit does not fail on the closed pipe.
    """
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(payload: dict, text_lines: list[str], args: argparse.Namespace) -> None:
    body = json.dumps(payload, indent=2) if args.format == "json" else "\n".join(text_lines)
    if args.output:
        _write(args.output, body + "\n")
    else:
        _print(body)


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
    """A Piranha state's view (`PiranhaProtocol.view`) as JSON."""
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


def cmd_check(args: argparse.Namespace) -> int:
    args.k = _parse_k(args.k)
    config = Config(**{f.name: getattr(args, f.name) for f in fields(Config)})
    if args.print_config:
        _print(json.dumps(config.to_json(), indent=2))
        return EXIT_OK
    protocol = make_protocol(config.protocol, config.n, config.m, config.queue_bound)
    k_max = min(config.n, config.m)
    ks = list(range(1, k_max + 1)) if config.k == "all" else [config.k]
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
    if args.emit_run is not None:
        witness_v = next((v for v in verdicts if v.result == COUNTEREXAMPLE), None)
        if witness_v is not None:
            _write(args.emit_run, dumps_jsonl(witness_v.run))
            emitted = args.emit_run

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
    _emit(payload, lines, args)
    return code


def cmd_analyze(args: argparse.Namespace) -> int:
    trace = project_trace(_load_run(args.trace))
    try:
        graph = build_constraint_graph(trace)  # checks both preconditions
        unamb = causal = True
    except PreconditionError:
        graph = None
        unamb, causal = is_unambiguous(trace), is_causal(trace)
    lines = [
        f"trace: {len(trace)} memory events, n={trace.params.n}, m={trace.params.m}",
        f"unambiguous: {'yes' if unamb else 'no'}",
        f"causal: {'yes' if causal else 'no'}",
    ]
    cyc = nice = None
    if graph is None:
        analysis, code = "skipped", EXIT_UNDECIDED
        verdict = "analysis skipped; trace outside the unambiguous causal class"
    elif (cyc := find_cycle(graph)) is None:
        analysis, code = "acyclic", EXIT_OK
        verdict = "acyclic; sequentially consistent under the simple write order"
    else:
        analysis, code = "cyclic", EXIT_VIOLATION
        verdict = "cycle found; not sequentially consistent under the simple write order"
        lines.append(f"cycle: vertices {cyc}")
        nice = find_minimal_nice_cycle(graph)
        if nice is not None:
            verdict = f"{'canonical ' if nice.canonical else ''}{nice.k}-nice {verdict}"
            lines.append(
                f"nice cycle: k={nice.k}, vertices {nice.vertices},"
                f" procs {nice.procs}, locs {nice.locs}"
                f"{', canonical' if nice.canonical else ''}"
            )
    lines.append(verdict)
    payload = {
        "events": len(trace),
        "n": trace.params.n,
        "m": trace.params.m,
        "unambiguous": unamb,
        "causal": causal,
        "analysis": analysis,
        "cycle_vertices": None if cyc is None else list(cyc),
        "nice_cycle": None if nice is None else nice.to_json(),
        "verdict": verdict,
    }
    _emit(payload, lines, args)
    return code


def cmd_oracle(args: argparse.Namespace) -> int:
    trace = project_trace(_load_run(args.trace))
    lines = [f"trace: {len(trace)} memory events"]
    witness = sc = None
    try:
        witness = check_sc_oracle(trace, bound=args.bound)
    except OracleBoundError as exc:
        verdict, code = str(exc), EXIT_UNDECIDED
        lines.append(f"undecided: {exc}")
    else:
        sc = witness is not None
        if sc:
            verdict, code = "sequentially consistent", EXIT_OK
            lines.append(f"witness f = {witness.f}")
        else:
            verdict, code = "not sequentially consistent", EXIT_VIOLATION
        lines.append(verdict)
    payload = {
        "events": len(trace),
        "bound": args.bound,
        "sc": sc,
        "witness": None if witness is None else list(witness.f),
        "verdict": verdict,
    }
    _emit(payload, lines, args)
    return code


def _parse_owners(text: Optional[str], m: int) -> tuple[int, ...]:
    if text is None:
        return (1,) * m
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"bad owner vector {text!r}: {exc}") from exc


def cmd_replay(args: argparse.Namespace) -> int:
    run = _load_run(args.run)
    protocol = make_protocol(args.protocol, run.params.n, run.params.m, args.queue_bound)
    owners = _parse_owners(args.owners, run.params.m)
    initial = protocol.initial_state(owners)  # checks the owner vector
    payload: dict = {
        "protocol": args.protocol,
        "events": len(run.events),
        "initial_owners": list(owners),
        "ok": None,
        "failed_at": None,
        "final_state": None,
        "unambiguous_trace": None,
    }
    lines = [f"replaying {len(run.events)} events on {args.protocol}, owners {owners}"]
    try:
        final = protocol.view(replay(protocol, run, initial))
    except ReplayError as exc:
        payload.update(ok=False, failed_at=exc.index)
        lines.append(f"replay failed at event index {exc.index}: {exc}")
        _emit(payload, lines, args)
        return EXIT_VIOLATION
    payload.update(ok=True, final_state=state_to_json(final))
    lines.append("replay succeeded")
    for i, row in enumerate(final.cache, 1):
        cells = " ".join(
            f"loc{j}=({d},{STATUS_NAMES[s]})" for j, (d, s) in enumerate(row, 1)
        )
        lines.append(f"  cache[{i}]: {cells}")
    lines.append(f"  owner: {final.owner}")
    if args.unambiguous:
        trace = replay_unambiguous(protocol, run, initial)
        payload["unambiguous_trace"] = [event_to_json(e) for e in trace.events]
        lines.append(
            "unambiguous trace: " + " ".join(format_event(e) for e in trace.events)
        )
    _emit(payload, lines, args)
    return EXIT_OK


def cmd_validate_assumptions(args: argparse.Namespace) -> int:
    protocol = make_protocol(args.protocol, args.n, args.m, args.queue_bound)
    report = validate_assumptions(protocol, depth=args.depth)
    lines = [
        f"explored {report.nodes} nodes / {report.edges} edges to depth {report.depth}",
        f"causality violations: {report.causality_total}",
        f"symmetry checks: {report.symmetry_checks}, violations: {report.symmetry_total}",
    ]
    for v in report.causality_violations[:5]:
        lines.append(
            f"  causality: event {v.index} "
            f"{format_event(v.run.events[v.index - 1])} reads a value never written"
        )
    for v in report.symmetry_violations[:5]:
        lines.append(
            f"  symmetry: {v.kind} swap {v.perm} fails on the state after {len(v.run)} events"
        )
    lines.append("ok" if report.ok else "violations found")
    _emit(report.to_json(), lines, args)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scmc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default=Config.format)
    common.add_argument("--output", metavar="PATH", default=Config.output,
                        help="write the report to PATH instead of stdout")

    p = sub.add_parser("check", parents=[common],
                       help="model-check a protocol against the cycle monitors")
    p.set_defaults(handler=cmd_check)
    p.add_argument("--protocol", choices=PROTOCOL_NAMES, default=Config.protocol)
    p.add_argument("--n", type=int, default=Config.n, help="processor count")
    p.add_argument("--m", type=int, default=Config.m, help="location count")
    p.add_argument("--k", default=Config.k,
                   help="cycle size to check, or 'all' for 1..min(n,m)")
    p.add_argument("--queue-bound", type=int, default=Config.queue_bound)
    p.add_argument("--max-states", type=int, default=Config.max_states)
    p.add_argument("--emit-run", metavar="PATH", default=None,
                   help="write the first counterexample run to PATH as JSON lines")
    p.add_argument("--print-config", action="store_true",
                   help="print the resolved configuration and exit")

    p = sub.add_parser("analyze", parents=[common],
                       help="constraint-graph analysis of a trace file")
    p.set_defaults(handler=cmd_analyze)
    p.add_argument("trace", help="JSON-lines trace/run file, or - for stdin")

    p = sub.add_parser("oracle", parents=[common],
                       help="decide sequential consistency of a short trace exhaustively")
    p.set_defaults(handler=cmd_oracle)
    p.add_argument("trace", help="JSON-lines trace/run file, or - for stdin")
    p.add_argument("--bound", type=int, default=ORACLE_BOUND_DEFAULT)

    p = sub.add_parser("replay", parents=[common],
                       help="replay a recorded run on a protocol")
    p.set_defaults(handler=cmd_replay)
    p.add_argument("run", help="JSON-lines run file, or - for stdin")
    p.add_argument("--protocol", choices=PROTOCOL_NAMES, default=Config.protocol)
    p.add_argument("--owners", default=None,
                   help="comma-separated initial owner per location (default: all 1)")
    p.add_argument("--queue-bound", type=int, default=Config.queue_bound)
    p.add_argument("--unambiguous", action="store_true",
                   help="also derive the fresh-value trace of the run")

    p = sub.add_parser("validate-assumptions", parents=[common],
                       help="bounded causality and symmetry validation of a protocol")
    p.set_defaults(handler=cmd_validate_assumptions)
    p.add_argument("--protocol", choices=PROTOCOL_NAMES, default=Config.protocol)
    p.add_argument("--n", type=int, default=Config.n)
    p.add_argument("--m", type=int, default=Config.m)
    p.add_argument("--queue-bound", type=int, default=Config.queue_bound)
    p.add_argument("--depth", type=int, default=DEFAULT_VALIDATION_DEPTH)
    return parser


def _parse_k(value) -> Union[int, str]:
    if value == "all":
        return "all"
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ParameterError(f"k must be an integer or 'all', got {value!r}") from None


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process on first use.

    Parsing leaves no state in it: each call gets a fresh namespace.
    """
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ScmcError as exc:
        print(f"scmc: error: {exc}", file=sys.stderr)
        internal = isinstance(exc, (SoundnessError, DataIndependenceError))
        return EXIT_INTERNAL if internal else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
