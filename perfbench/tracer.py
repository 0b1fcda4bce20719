"""Spans and counts recorded around scmc's public calls, from outside.

`install` replaces module and class attributes of scmc with wrappers; the
program itself is not changed.  A span is (name, start, end, parent, op):
spans are nested, so a span's self time is its duration minus the time its
child spans cover.  Wrappers record only while `active` is set, which the
benchmark does around each timed operation, so set-up and correctness
checks leave no spans.  Bookkeeping done after a call returns counts as
covered by that call, so it is charged to neither the call nor its parent.
"""
from __future__ import annotations

import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

from scmc import analysis, checker, cli, witness
from scmc.events import READ, MemoryEvent
from scmc.protocol import PiranhaProtocol
from scmc.witness import ConstraintGraph

# (span name, owner, attribute): every attribute through which the CLI, the
# checker or the benchmark reaches a traced call.
SPAN_TARGETS = (
    ("cli.main", cli, "main"),
    ("protocol.successors", PiranhaProtocol, "successors"),
    ("protocol.encode", PiranhaProtocol, "encode_state"),
    ("protocol.decode", PiranhaProtocol, "decode_state"),
    ("checker.model_check", cli, "model_check"),
    ("checker.extract", checker, "extract_cycle"),
    ("events.parse", cli, "loads_run_jsonl"),
    ("analysis.precheck", cli, "is_unambiguous"),
    ("analysis.precheck", cli, "is_causal"),
    ("analysis.oracle", analysis, "check_sc_oracle"),
    ("witness.build", cli, "build_constraint_graph"),
    ("witness.build", checker, "build_constraint_graph"),
    ("witness.build", witness, "build_constraint_graph"),
    ("witness.find_cycle", cli, "find_cycle"),
    ("witness.find_cycle", witness, "find_cycle"),
    ("witness.nice_cycle", cli, "find_minimal_nice_cycle"),
    ("witness.nice_cycle", witness, "find_minimal_nice_cycle"),
    ("witness.verify", checker, "verify_nice_cycle"),
)


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op_id = -1
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self.totals: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, name: str, fn, after=None):
        if name not in self.totals:
            self.totals[name] = [0, 0.0, 0.0]
            self.names.append(name)
        agg = self.totals[name]
        nid = self.names.index(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.parent.append(stack[-1][0] if stack else -1)
            self.name.append(nid)
            self.op.append(self.op_id)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.end.append(t1)
            if after is not None:
                after(args, result)
            dur = t1 - t0
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame[1]
            if stack:
                stack[-1][1] += perf_counter() - t0
            return result

        return wrapper

    def _count_successors(self, args, result) -> None:
        state = args[1]
        self.counts["protocol.successor_edges"] += len(result)
        self.counts["protocol.read_selfloops"] += sum(
            1 for e, s in result if type(e) is MemoryEvent and e.op == READ and s is state
        )

    def install(self) -> None:
        for name, owner, attr in SPAN_TARGETS:
            after = self._count_successors if name == "protocol.successors" else None
            self._patch(owner, attr, self._span(name, getattr(owner, attr), after))
        counts = self.counts
        succ, label = ConstraintGraph.successors, ConstraintGraph.loc_edge_label

        def graph_successors(graph, u):
            if self.active:
                counts["witness.graph_successors_calls"] += 1
            return succ(graph, u)

        def loc_edge_label(graph, u, v):
            if self.active:
                counts["witness.loc_edge_label_calls"] += 1
            return label(graph, u, v)

        self._patch(ConstraintGraph, "successors", graph_successors)
        self._patch(ConstraintGraph, "loc_edge_label", loc_edge_label)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def take_round(self) -> tuple[dict, Counter]:
        """Per-name [calls, total s, self s] and counts since the last call."""
        totals = {name: list(agg) for name, agg in self.totals.items()}
        counts = Counter(self.counts)
        for agg in self.totals.values():
            agg[:] = [0, 0.0, 0.0]
        self.counts.clear()
        return totals, counts

    def write(self, stem: Path) -> None:
        """Write the spans as `<stem>.json` (layout) and `<stem>.bin` (columns)."""
        columns = ("start", "end", "name", "parent", "op")
        with open(stem.with_suffix(".bin"), "wb") as fp:
            for col in columns:
                getattr(self, col).tofile(fp)
        layout = {
            "spans": len(self.start),
            "names": self.names,
            "columns": [[col, getattr(self, col).typecode] for col in columns],
            "order": "column after column, native byte order",
        }
        stem.with_suffix(".json").write_text(json.dumps(layout, indent=1) + "\n")
