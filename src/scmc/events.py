"""Event, trace and run model for parameterized shared-memory systems.

A memory system has n processors, m locations and data values 0..v, with 0
reserved for the initial contents of every location.  Memory events are
4-tuples (op, proc, loc, data); runs may additionally contain protocol
internal events carrying integer parameters.  A trace is the subsequence of
memory events of a run.

All indices handed out or consumed by this module are 1-based: processors
are 1..n, locations 1..m, and positions within a trace are 1..len(trace).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Union

from .errors import FormatError, ParameterError, RenamingDomainError

READ = "R"
WRITE = "W"


class MemoryEvent(NamedTuple):
    op: str
    proc: int
    loc: int
    data: int


class InternalEvent(NamedTuple):
    label: str
    params: tuple[int, ...]


Event = Union[MemoryEvent, InternalEvent]


@dataclass(frozen=True)
class Params:
    """Bounds (n, m, v) an event sequence is declared against."""

    n: int
    m: int
    v: int

    def __post_init__(self) -> None:
        for name in ("n", "m", "v"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ParameterError(f"{name} must be a positive integer, got {value!r}")


def _check_memory_event(e: MemoryEvent, params: Params) -> None:
    if e.op not in (READ, WRITE):
        raise ParameterError(f"bad op {e.op!r} (expected {READ!r} or {WRITE!r})")
    if not 1 <= e.proc <= params.n:
        raise ParameterError(f"proc {e.proc} outside 1..{params.n}")
    if not 1 <= e.loc <= params.m:
        raise ParameterError(f"loc {e.loc} outside 1..{params.m}")
    if not 0 <= e.data <= params.v:
        raise ParameterError(f"data {e.data} outside 0..{params.v}")


@dataclass(frozen=True)
class Trace:
    """An immutable sequence of memory events over fixed parameters."""

    events: tuple[MemoryEvent, ...]
    params: Params

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for e in self.events:
            if not isinstance(e, MemoryEvent):
                raise ParameterError(f"traces contain memory events only, got {e!r}")
            _check_memory_event(e, self.params)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[MemoryEvent]:
        return iter(self.events)

    def at(self, i: int) -> MemoryEvent:
        """1-based positional access."""
        if not 1 <= i <= len(self.events):
            raise ParameterError(f"index {i} outside 1..{len(self.events)}")
        return self.events[i - 1]


@dataclass(frozen=True)
class Run:
    """An immutable sequence of memory and internal events."""

    events: tuple[Event, ...]
    params: Params

    def __post_init__(self) -> None:
        normalized = []
        for e in self.events:
            if isinstance(e, MemoryEvent):
                _check_memory_event(e, self.params)
            elif isinstance(e, InternalEvent):
                if not all(isinstance(p, int) for p in e.params):
                    raise ParameterError(f"internal event params must be ints: {e!r}")
                e = InternalEvent(e.label, tuple(e.params))
            else:
                raise ParameterError(f"not an event: {e!r}")
            normalized.append(e)
        object.__setattr__(self, "events", tuple(normalized))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)


def project_trace(run: Run) -> Trace:
    """The memory-event subsequence of a run, order preserved.

    The run checked each of these events against the same params when it
    was made, so the trace is made without checking them again.
    """
    events = tuple(e for e in run.events if isinstance(e, MemoryEvent))
    trace = object.__new__(Trace)
    object.__setattr__(trace, "events", events)
    object.__setattr__(trace, "params", run.params)
    return trace


def _check_proc(trace: Trace, i: int) -> None:
    if not 1 <= i <= trace.params.n:
        raise ParameterError(f"proc {i} outside 1..{trace.params.n}")


def _check_loc(trace: Trace, j: int) -> None:
    if not 1 <= j <= trace.params.m:
        raise ParameterError(f"loc {j} outside 1..{trace.params.m}")


def proc_indices(trace: Trace, i: int) -> tuple[int, ...]:
    """1-based positions of processor i's events, ascending."""
    _check_proc(trace, i)
    return tuple(x for x, e in enumerate(trace.events, 1) if e.proc == i)


def loc_indices(trace: Trace, j: int) -> tuple[int, ...]:
    """1-based positions of events at location j, ascending."""
    _check_loc(trace, j)
    return tuple(x for x, e in enumerate(trace.events, 1) if e.loc == j)


def write_indices(trace: Trace, j: int) -> tuple[int, ...]:
    _check_loc(trace, j)
    return tuple(
        x for x, e in enumerate(trace.events, 1) if e.loc == j and e.op == WRITE
    )


def read_indices(trace: Trace, j: int) -> tuple[int, ...]:
    _check_loc(trace, j)
    return tuple(
        x for x, e in enumerate(trace.events, 1) if e.loc == j and e.op == READ
    )


@dataclass(frozen=True, eq=True)
class RenamingFunction:
    """Finite map (location, data) -> data with the fixed point (j, 0) -> 0.

    Pairs with data 0 are implicitly mapped to 0 and need no entry; an
    explicit entry for data 0 must agree.  Applying the map to a nonzero
    pair outside its domain raises RenamingDomainError.
    """

    entries: Mapping[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        copied = {}
        for key, value in dict(self.entries).items():
            loc, data = key
            if not (isinstance(loc, int) and loc >= 1):
                raise ParameterError(f"renaming key location must be >= 1: {key!r}")
            if not (isinstance(data, int) and data >= 0):
                raise ParameterError(f"renaming key data must be >= 0: {key!r}")
            if not (isinstance(value, int) and value >= 0):
                raise ParameterError(f"renaming value must be >= 0: {value!r}")
            if data == 0 and value != 0:
                raise ParameterError(f"renaming must fix (loc, 0) -> 0, got {key!r} -> {value}")
            copied[(loc, data)] = value
        object.__setattr__(self, "entries", copied)

    def __call__(self, loc: int, data: int) -> int:
        if data == 0:
            return 0
        try:
            return self.entries[(loc, data)]
        except KeyError:
            raise RenamingDomainError(
                f"renaming undefined on (loc={loc}, data={data})"
            ) from None


def identity_renaming(trace: Trace) -> RenamingFunction:
    """The renaming that fixes every (loc, data) pair occurring in the trace."""
    return RenamingFunction(
        {(e.loc, e.data): e.data for e in trace.events if e.data != 0}
    )


def rename_data(trace: Trace, renaming: RenamingFunction) -> Trace:
    """Apply a renaming to every event's data field; op/proc/loc unchanged."""
    events = tuple(
        MemoryEvent(e.op, e.proc, e.loc, renaming(e.loc, e.data))
        for e in trace.events
    )
    v = max([trace.params.v] + [e.data for e in events])
    return Trace(events, Params(trace.params.n, trace.params.m, v))


def check_permutation(perm: Iterable[int], size: int) -> tuple[int, ...]:
    """Validate that perm is a bijection on 1..size; returns it as a tuple."""
    perm = tuple(perm)
    if sorted(perm) != list(range(1, size + 1)):
        raise ParameterError(f"{perm!r} is not a permutation of 1..{size}")
    return perm


def permute_procs(trace: Trace, perm: Iterable[int]) -> Trace:
    """Rename processor ids: event of processor i becomes one of perm[i-1]."""
    perm = check_permutation(perm, trace.params.n)
    return Trace(
        tuple(MemoryEvent(e.op, perm[e.proc - 1], e.loc, e.data) for e in trace.events),
        trace.params,
    )


def permute_locs(trace: Trace, perm: Iterable[int]) -> Trace:
    """Rename location ids: event at location j becomes one at perm[j-1]."""
    perm = check_permutation(perm, trace.params.m)
    return Trace(
        tuple(MemoryEvent(e.op, e.proc, perm[e.loc - 1], e.data) for e in trace.events),
        trace.params,
    )


# ---------------------------------------------------------------------------
# JSON Lines wire format.
#
# First line is a header {"n": INT, "m": INT, "v": INT}; every further line
# is one event, either {"op": "R"|"W", "proc": INT, "loc": INT, "data": INT}
# or {"internal": LABEL, "params": [INT, ...]}.  An INT is a JSON integer;
# true and false are not accepted as one.

def event_to_json(e: Event) -> dict:
    if isinstance(e, MemoryEvent):
        return {"op": e.op, "proc": e.proc, "loc": e.loc, "data": e.data}
    return {"internal": e.label, "params": list(e.params)}


def dumps_jsonl(obj: Trace | Run) -> str:
    header = {"n": obj.params.n, "m": obj.params.m, "v": obj.params.v}
    lines = [json.dumps(header)]
    lines.extend(json.dumps(event_to_json(e)) for e in obj.events)
    return "\n".join(lines) + "\n"


def dump_jsonl(obj: Trace | Run, fp: IO[str]) -> None:
    fp.write(dumps_jsonl(obj))


_MEMORY_KEYS = {"op", "proc", "loc", "data"}
_INTERNAL_KEYS = {"internal", "params"}
_HEADER_KEYS = {"n", "m", "v"}
# The scanner json.loads runs, without its two whitespace passes, which a
# stripped line does not need.  json.loads also rejects a leading byte-order
# mark, which this reads as a missing value; loads_run_jsonl names it.
_raw_decode = json.JSONDecoder().raw_decode
# What MemoryEvent(...) runs, without the Python-level __new__ that
# NamedTuple generates around it; the decoder makes one per memory event.
_tuple_new = tuple.__new__


def _parse_event(record: object, line: int) -> Event:
    if not isinstance(record, dict):
        raise FormatError(f"expected an event object, got {record!r}", line)
    keys = record.keys()
    if "op" in keys:
        if keys != _MEMORY_KEYS:
            raise FormatError(f"memory event keys must be {sorted(_MEMORY_KEYS)}", line)
        proc, loc, data = record["proc"], record["loc"], record["data"]
        if not (type(proc) is int and type(loc) is int and type(data) is int):
            raise FormatError("proc, loc and data must be integers", line)
        return _tuple_new(MemoryEvent, (record["op"], proc, loc, data))
    if "internal" in keys:
        if keys != _INTERNAL_KEYS:
            raise FormatError(f"internal event keys must be {sorted(_INTERNAL_KEYS)}", line)
        label, params = record["internal"], record["params"]
        if not isinstance(label, str):
            raise FormatError("internal label must be a string", line)
        if not (isinstance(params, list) and all(type(p) is int for p in params)):
            raise FormatError("params must be a list of integers", line)
        return InternalEvent(label, tuple(params))
    raise FormatError(f"event object needs an 'op' or 'internal' key, got {sorted(keys)}", line)


def loads_run_jsonl(text: str) -> Run:
    """Decode a run; each line is read as `json.loads` reads it.

    Errors name their line; invalid JSON keeps json.loads' own message.
    """
    header = None
    events: list[Event] = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            record, end = _raw_decode(raw)
        except json.JSONDecodeError as exc:
            msg = exc.msg
            if raw.startswith("\ufeff"):
                msg = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
            raise FormatError(f"invalid JSON ({msg})", line_no) from None
        except RecursionError:
            raise FormatError("invalid JSON (nested too deeply)", line_no) from None
        except ValueError:  # an integer longer than int() accepts
            raise FormatError("invalid JSON (integer has too many digits)", line_no) from None
        if end != len(raw):
            raise FormatError("invalid JSON (Extra data)", line_no)
        if header is None:
            if not (isinstance(record, dict) and record.keys() == _HEADER_KEYS):
                raise FormatError('first line must be a header {"n", "m", "v"}', line_no)
            if not all(type(record[k]) is int for k in ("n", "m", "v")):
                raise FormatError("header values must be integers", line_no)
            header = Params(record["n"], record["m"], record["v"])
            continue
        events.append(_parse_event(record, line_no))
    if header is None:
        raise FormatError("empty input: missing header line")
    try:
        return Run(tuple(events), header)
    except ParameterError as exc:
        raise FormatError(str(exc)) from None


def load_run_jsonl(fp: IO[str]) -> Run:
    return loads_run_jsonl(fp.read())
