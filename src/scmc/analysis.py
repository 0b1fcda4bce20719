"""Trace-level semantic checks and an exact sequential-consistency oracle.

The oracle decides whether a trace has a serial reordering that preserves
each processor's program order.  It searches the interleavings of the
processors' programs depth first, over states (cursor vector, memory),
and remembers the states from which no serial completion exists; the
problem is NP-complete in general (Gibbons and Korach, "Testing shared
memories", SIAM J. Comput. 1997), so check_sc_oracle refuses traces
longer than its bound.  It is deliberately independent of the graph-based
machinery in scmc.witness so the two routes can be checked against each
other.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import OracleBoundError, ParameterError
from .events import READ, WRITE, Trace

ORACLE_BOUND_DEFAULT = 10


def is_unambiguous(trace: Trace) -> bool:
    """Per location, all writes carry pairwise distinct nonzero values."""
    seen: set[tuple[int, int]] = set()
    for e in trace.events:
        if e.op == WRITE:
            if e.data == 0 or (e.loc, e.data) in seen:
                return False
            seen.add((e.loc, e.data))
    return True


def is_causal(trace: Trace) -> bool:
    """Every read returns 0 or the value of some write to the same location.

    The matching write may appear anywhere in the trace, later included.
    """
    written: dict[int, set[int]] = {}
    for e in trace.events:
        if e.op == WRITE:
            written.setdefault(e.loc, set()).add(e.data)
    for e in trace.events:
        if e.op == READ and e.data != 0:
            if e.data not in written.get(e.loc, ()):
                return False
    return True


def is_serial(trace: Trace) -> bool:
    """Each event's data equals the latest preceding write to its location.

    Locations with no preceding write read as 0.  A write trivially agrees
    with itself, so only reads can fail.
    """
    latest: dict[int, int] = {}
    for e in trace.events:
        if e.op == WRITE:
            latest[e.loc] = e.data
        elif e.data != latest.get(e.loc, 0):
            return False
    return True


@dataclass(frozen=True)
class SerialWitness:
    """A permutation f placing event u at position f(u) of a serial reordering."""

    f: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "f", tuple(self.f))
        if sorted(self.f) != list(range(1, len(self.f) + 1)):
            raise ParameterError(f"{self.f!r} is not a permutation of 1..{len(self.f)}")

    def apply(self, trace: Trace) -> Trace:
        if len(trace) != len(self.f):
            raise ParameterError(
                f"witness on {len(self.f)} events applied to trace of {len(trace)}"
            )
        out: list = [None] * len(self.f)
        for u, e in enumerate(trace.events, 1):
            out[self.f[u - 1] - 1] = e
        return Trace(tuple(out), trace.params)


def respects_program_order(trace: Trace, f: tuple[int, ...]) -> bool:
    """True iff f is increasing along every processor's events."""
    if len(f) != len(trace):
        raise ParameterError(f"witness on {len(f)} events checked against trace of {len(trace)}")
    return all(
        f[a - 1] < f[b - 1] for prog in _programs(trace) for a, b in zip(prog, prog[1:])
    )


def _programs(trace: Trace) -> tuple[tuple[int, ...], ...]:
    # per-processor lists of original indices, skipping idle processors
    progs: dict[int, list[int]] = {}
    for u, e in enumerate(trace.events, 1):
        progs.setdefault(e.proc, []).append(u)
    return tuple(map(tuple, progs.values()))


def _steps(trace: Trace) -> tuple[tuple[tuple[bool, int, int], ...], int]:
    """Each event as (is a write, memory slot, data), and the slot count.

    The memory has one slot per location that occurs, not one per location
    the header declares, so its size is bounded by the trace length.
    """
    slots: dict[int, int] = {}
    steps = tuple(
        (e.op == WRITE, slots.setdefault(e.loc, len(slots)), e.data) for e in trace.events
    )
    return steps, len(slots)


def _exec_step(step: tuple[bool, int, int], mem: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    # serial-memory semantics: None when the event cannot fire now
    is_write, slot, data = step
    if is_write:
        if mem[slot] == data:
            return mem
        return mem[:slot] + (data,) + mem[slot + 1 :]
    if mem[slot] != data:
        return None
    return mem


def _serialize(
    steps: tuple[tuple[bool, int, int], ...],
    width: int,
    progs: tuple[tuple[int, ...], ...],
) -> Optional[list[int]]:
    """The least valid interleaving as event indices, or None if none exists.

    Depth-first search over states (cursor vector, memory): the cursors
    say how much of each program in `progs` (`_programs(trace)`) has run,
    and the memory has `width` slots, one per location that occurs
    (`_steps(trace)`).  The enabled events are tried in ascending trace
    index, so the first interleaving completed is the lexicographically
    least, and a serial trace is walked straight down.  A state with no
    completion is remembered as dead, which prunes nothing that could
    complete.  The search keeps its own stack, so trace length is not
    capped by the recursion limit.
    """
    total = len(steps)
    dead: set = set()
    prog_ids = range(len(progs))
    cursors = [0] * len(progs)
    mem = (0,) * width
    path: list[int] = []
    # one frame per state on the path: its key and memory, the moves not
    # yet tried from it, and the program whose cursor moved to enter it
    stack: list = []
    entered = -1
    while len(path) < total:
        key = (tuple(cursors), mem)
        if key in dead:
            moves: list = []
        else:
            moves = sorted([(idxs[c], i) for i, idxs, c in zip(prog_ids, progs, cursors)
                            if c < len(idxs)])
        stack.append((key, mem, iter(moves), entered))
        while True:
            key, mem, untried, entered = stack[-1]
            for u, i in untried:
                mem2 = _exec_step(steps[u - 1], mem)
                if mem2 is not None:
                    break
            else:
                dead.add(key)
                stack.pop()
                if not stack:
                    return None
                cursors[entered] -= 1
                path.pop()
                continue
            break
        path.append(u)
        cursors[i] += 1
        mem = mem2
        entered = i
    return path


def check_sc_oracle(
    trace: Trace, bound: int = ORACLE_BOUND_DEFAULT
) -> Optional[SerialWitness]:
    """Return a serial witness if the trace is sequentially consistent.

    The witness is the inverse of the lexicographically least valid
    serialization, comparing serializations as sequences of event indices
    in serial order.  One search over program-order interleavings decides
    SC and yields that serialization.
    """
    if bound < 0:
        raise ParameterError(f"oracle bound must be >= 0, got {bound}")
    total = len(trace)
    if total > bound:
        raise OracleBoundError(total, bound)
    progs = _programs(trace)
    steps, width = _steps(trace)
    order = _serialize(steps, width, progs)
    if order is None:
        return None
    f = [0] * total
    for p, u in enumerate(order, 1):
        f[u - 1] = p
    return SerialWitness(tuple(f))
