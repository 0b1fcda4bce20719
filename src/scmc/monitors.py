"""Finite monitor automata composed with a protocol during model checking.

Two families over the event alphabet with data domain fixed to {0, 1, 2}:

* a write-order constraint per location, which pins location j <= k to the
  write pattern 0* 1 2* (and locations beyond k to writes of 0 only) by
  having no transition for any other write;
* a violation check per processor i <= k, which steps a -> b on an event of
  processor i at location i with data 1 or 2, and b -> err on a later event
  of processor i at location (i mod k)+1 that reads 0 or writes 1.

A missing constraint transition blocks the event in a product composition;
blocking never changes monitor state.  The check automata are complete,
with err absorbing.
"""
from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .errors import ParameterError
from .events import WRITE, MemoryEvent, Trace

A = "a"
B = "b"
ERR = "err"

MONITOR_DATA_DOMAIN = (0, 1, 2)


class ConstrainState(NamedTuple):
    loc: int
    k: int
    phase: str


class CheckState(NamedTuple):
    proc: int
    k: int
    phase: str


def constrain_initial(loc: int, k: int) -> ConstrainState:
    return ConstrainState(loc, k, A)


def check_initial(proc: int, k: int) -> CheckState:
    return CheckState(proc, k, A)


def constrain_step(state: ConstrainState, e: MemoryEvent) -> Optional[ConstrainState]:
    """Next state, or None when the automaton blocks the event."""
    j, k, phase = state
    if not (e.op == WRITE and e.loc == j):
        return state
    if j > k:
        return state if e.data == 0 else None
    if phase == A:
        if e.data == 0:
            return state
        if e.data == 1:
            return ConstrainState(j, k, B)
        return None
    # phase B: only further writes of 2 to j
    return state if e.data == 2 else None


def check_step(state: CheckState, e: MemoryEvent) -> CheckState:
    i, k, phase = state
    if phase == A:
        if e.proc == i and e.loc == i and e.data in (1, 2):
            return CheckState(i, k, B)
        return state
    if phase == B:
        succ = i % k + 1
        if e.proc == i and e.loc == succ and (
            e.data == 0 or (e.op == WRITE and e.data == 1)
        ):
            return CheckState(i, k, ERR)
        return state
    return state  # err absorbs


class ConstrainAutomaton:
    """Write-order constraint for one location at cycle size k."""

    def __init__(self, loc: int, k: int):
        if loc < 1 or k < 1:
            raise ParameterError(f"loc and k must be >= 1, got loc={loc} k={k}")
        self.loc = loc
        self.k = k

    @property
    def states(self) -> tuple[str, ...]:
        return (A, B) if self.loc <= self.k else (A,)

    def initial(self) -> ConstrainState:
        return constrain_initial(self.loc, self.k)

    def step(self, state: ConstrainState, e: MemoryEvent) -> Optional[ConstrainState]:
        return constrain_step(state, e)

    def accepting(self, state: ConstrainState) -> bool:
        return True  # every live state accepts; rejection is by blocking


class CheckAutomaton:
    """Violation detector for one processor at cycle size k."""

    def __init__(self, proc: int, k: int):
        if not 1 <= proc <= k:
            raise ParameterError(f"proc {proc} outside 1..{k}")
        self.proc = proc
        self.k = k

    @property
    def states(self) -> tuple[str, ...]:
        return (A, B, ERR)

    def initial(self) -> Union[ConstrainState, CheckState]:
        return check_initial(self.proc, self.k)

    def step(self, state: CheckState, e: MemoryEvent) -> CheckState:
        return check_step(state, e)

    def accepting(self, state: CheckState) -> bool:
        return state.phase == ERR


def accepts(trace: Trace, automaton) -> bool:
    """Run the automaton over the whole trace; blocked events reject."""
    for e in trace.events:
        if e.data not in MONITOR_DATA_DOMAIN:
            raise ParameterError(f"monitors need data in {MONITOR_DATA_DOMAIN}, got {e!r}")
    state = automaton.initial()
    for e in trace.events:
        state = automaton.step(state, e)
        if state is None:
            return False
    return automaton.accepting(state)
