"""Finite monitor automata composed with a protocol during model checking.

Two families over the event alphabet with data domain fixed to {0, 1, 2}:

* a write-order constraint per location, which pins location j <= k to the
  write pattern 0* 1 2* (and locations beyond k to writes of 0 only) by
  having no transition for any other write;
* a violation check per processor i <= k, which steps a -> b on an event of
  processor i at location i with data 1 or 2, and b -> err on a later event
  of processor i at location (i mod k)+1 that reads 0 or writes 1.

A state is just a phase, A, B or ERR; the location or processor an automaton
watches and the cycle size k belong to the automaton, not to its states.
A missing constraint transition (`step` returns None) blocks the event in a
product composition; blocking never changes monitor state.  The check
automata are complete, with err absorbing.
"""
from __future__ import annotations

from typing import Optional

from .errors import ParameterError
from .events import WRITE, MemoryEvent, Trace

A = "a"
B = "b"
ERR = "err"

MONITOR_DATA_DOMAIN = (0, 1, 2)


class ConstrainAutomaton:
    """Write-order constraint for one location at cycle size k."""

    def __init__(self, loc: int, k: int):
        if loc < 1 or k < 1:
            raise ParameterError(f"loc and k must be >= 1, got loc={loc} k={k}")
        self.loc = loc
        self.k = k
        self.states = (A, B) if loc <= k else (A,)
        # (phase, data) of a write to loc -> next phase; any other write blocks
        self._writes = {(A, 0): A, (A, 1): B, (B, 2): B} if loc <= k else {(A, 0): A}

    def initial(self) -> str:
        return A

    def step(self, phase: str, e: MemoryEvent) -> Optional[str]:
        """Next phase, or None when the automaton blocks the event."""
        if e.op != WRITE or e.loc != self.loc:
            return phase
        return self._writes.get((phase, e.data))

    def accepting(self, phase: str) -> bool:
        return True  # every live state accepts; rejection is by blocking


class CheckAutomaton:
    """Violation detector for one processor at cycle size k."""

    states = (A, B, ERR)

    def __init__(self, proc: int, k: int):
        if not 1 <= proc <= k:
            raise ParameterError(f"proc {proc} outside 1..{k}")
        self.proc = proc
        self.k = k

    def initial(self) -> str:
        return A

    def step(self, phase: str, e: MemoryEvent) -> str:
        if e.proc != self.proc:
            return phase
        if phase == A and e.loc == self.proc and e.data in (1, 2):
            return B
        if phase == B and e.loc == self.proc % self.k + 1 and (
            e.data == 0 or (e.op == WRITE and e.data == 1)
        ):
            return ERR
        return phase  # err absorbs

    def accepting(self, phase: str) -> bool:
        return phase == ERR


def accepts(trace: Trace, automaton) -> bool:
    """Run the automaton over the whole trace; blocked events reject."""
    for e in trace.events:
        if e.data not in MONITOR_DATA_DOMAIN:
            raise ParameterError(f"monitors need data in {MONITOR_DATA_DOMAIN}, got {e!r}")
    phase = automaton.initial()
    for e in trace.events:
        phase = automaton.step(phase, e)
        if phase is None:
            return False
    return automaton.accepting(phase)
