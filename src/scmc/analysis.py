"""Trace-level semantic checks and a brute-force sequential-consistency oracle.

The oracle decides whether a trace has a serial reordering that preserves
each processor's program order.  It is deliberately independent of the
graph-based machinery in scmc.witness so the two routes can be checked
against each other.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Optional

from .errors import OracleBoundError, ParameterError, SoundnessError
from .events import READ, WRITE, Trace, proc_indices

ORACLE_BOUND_DEFAULT = 10
PERMUTATION_ENGINE_BOUND = 8


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
    for i in range(1, trace.params.n + 1):
        idxs = proc_indices(trace, i)
        for a, b in zip(idxs, idxs[1:]):
            if f[a - 1] >= f[b - 1]:
                return False
    return True


def _programs(trace: Trace) -> tuple[tuple[int, ...], ...]:
    # per-processor lists of original indices, skipping idle processors
    progs = [proc_indices(trace, i) for i in range(1, trace.params.n + 1)]
    return tuple(p for p in progs if p)


def _exec_step(e, mem: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    # serial-memory semantics: None when the event cannot fire now
    if e.op == WRITE:
        if mem[e.loc - 1] == e.data:
            return mem
        return mem[: e.loc - 1] + (e.data,) + mem[e.loc :]
    if mem[e.loc - 1] != e.data:
        return None
    return mem


def _feasible_with_pins(
    trace: Trace, progs: tuple[tuple[int, ...], ...], pins: dict[int, int]
) -> bool:
    """Is there a valid interleaving placing event u at position pins[u]?

    DFS over program-order interleavings with memoized dead states; with no
    pins it decides sequential consistency.  progs is `_programs(trace)`.
    """
    events = trace.events
    total = len(events)
    pos_to_event = {p: u for u, p in pins.items()}
    pinned = set(pins)
    mem0 = (0,) * trace.params.m
    dead: set = set()

    def rec(cursors: tuple[int, ...], mem: tuple[int, ...], done: int) -> bool:
        if done == total:
            return True
        key = (cursors, mem)
        if key in dead:
            return False
        want = pos_to_event.get(done + 1)
        for pi, idxs in enumerate(progs):
            c = cursors[pi]
            if c == len(idxs):
                continue
            u = idxs[c]
            if want is not None:
                if u != want:
                    continue
            elif u in pinned:
                continue
            mem2 = _exec_step(events[u - 1], mem)
            if mem2 is None:
                continue
            if rec(cursors[:pi] + (c + 1,) + cursors[pi + 1 :], mem2, done + 1):
                return True
        dead.add(key)
        return False

    return rec((0,) * len(progs), mem0, 0)


def _lex_min_witness(trace: Trace, progs: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    # assign each event in index order the least position that stays feasible
    total = len(trace)
    pins: dict[int, int] = {}
    for u in range(1, total + 1):
        taken = set(pins.values())
        for p in range(1, total + 1):
            if p in taken:
                continue
            pins[u] = p
            if _feasible_with_pins(trace, progs, pins):
                break
            del pins[u]
        else:
            raise SoundnessError(f"no feasible position for event {u}")
    return tuple(pins[u] for u in range(1, total + 1))


def check_sc_oracle(
    trace: Trace,
    bound: int = ORACLE_BOUND_DEFAULT,
    engine: str = "interleaving",
) -> Optional[SerialWitness]:
    """Return a serial witness if the trace is sequentially consistent.

    The witness is the lexicographically least valid one, comparing the
    sequences (f(1), f(2), ...).  Engine "interleaving" searches
    program-order interleavings with memoization; "permutations" literally
    scans all permutations and is limited to 8 events.
    """
    if bound < 0:
        raise ParameterError(f"oracle bound must be >= 0, got {bound}")
    total = len(trace)
    if total > bound:
        raise OracleBoundError(total, bound)
    if engine == "permutations":
        if total > PERMUTATION_ENGINE_BOUND:
            raise OracleBoundError(total, PERMUTATION_ENGINE_BOUND)
        for f in permutations(range(1, total + 1)):
            if respects_program_order(trace, f) and is_serial(SerialWitness(f).apply(trace)):
                return SerialWitness(f)
        return None
    if engine != "interleaving":
        raise ParameterError(f"unknown oracle engine {engine!r}")
    progs = _programs(trace)
    if not _feasible_with_pins(trace, progs, {}):
        return None
    return SerialWitness(_lex_min_witness(trace, progs))
