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

from .errors import OracleBoundError, ParameterError, SoundnessError
from .events import READ, WRITE, Trace, proc_indices

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
    for i in range(1, trace.params.n + 1):
        idxs = proc_indices(trace, i)
        for a, b in zip(idxs, idxs[1:]):
            if f[a - 1] >= f[b - 1]:
                return False
    return True


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


def _feasible_with_pins(
    steps: tuple[tuple[bool, int, int], ...],
    width: int,
    progs: tuple[tuple[int, ...], ...],
    pins: dict[int, int],
) -> Optional[list[int]]:
    """A valid interleaving placing each event u at position pins[u].

    Returns the event indices in serial order, or None if there is none.
    Depth-first search over states (cursor vector, memory): the cursors
    say how much of each program in `progs` (`_programs(trace)`) has run,
    and the memory has `width` slots, one per location that occurs
    (`_steps(trace)`).  The enabled events are tried in ascending trace
    index, so an unpinned search of a serial trace walks straight down the
    trace.  A state with no completion is remembered as dead.  The search
    keeps its own stack, so trace length is not capped by the recursion
    limit.  With no pins it decides sequential consistency.
    """
    total = len(steps)
    pos_to_event = {p: u for u, p in pins.items()}
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
        want = pos_to_event.get(len(path) + 1)
        if key in dead:
            moves: list = []
        elif want is None:
            moves = sorted([(idxs[c], i) for i, idxs, c in zip(prog_ids, progs, cursors)
                            if c < len(idxs) and idxs[c] not in pins])
        else:
            moves = [(want, i) for i, idxs, c in zip(prog_ids, progs, cursors)
                     if c < len(idxs) and idxs[c] == want]
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


def _lex_min_witness(
    steps: tuple[tuple[bool, int, int], ...],
    width: int,
    progs: tuple[tuple[int, ...], ...],
    order: list[int],
) -> tuple[int, ...]:
    """The least f, taken event by event, given one serialization `order`.

    Each event u in index order gets the least position p that some valid
    interleaving still allows, with every earlier event held at its chosen
    position.  `order` is kept as an interleaving that meets every
    position chosen so far, so it is a witness that u's own position in
    it, pos[u], is feasible: that p is accepted without a search.  Only a
    smaller p needs one, and a search that succeeds becomes the kept
    interleaving.  Positions up to that of u's program-order predecessor
    are skipped, since no interleaving allows them.  The result is the
    same f as searching every candidate p.
    """
    total = len(steps)
    pred = [0] * (total + 1)
    for idxs in progs:
        for a, b in zip(idxs, idxs[1:]):
            pred[b] = a
    pos = _positions(order)
    pins: dict[int, int] = {}
    taken: set[int] = set()
    for u in range(1, total + 1):
        for p in range(pins[pred[u]] + 1 if pred[u] else 1, pos[u]):
            if p in taken:
                continue
            pins[u] = p
            found = _feasible_with_pins(steps, width, progs, pins)
            if found is not None:
                pos = _positions(found)
                break
        if pos[u] in taken:
            raise SoundnessError(f"the kept serialization moved an event pinned before {u}")
        pins[u] = pos[u]
        taken.add(pos[u])
    return tuple(pins[u] for u in range(1, total + 1))


def _positions(order: list[int]) -> list[int]:
    # pos[u] is the 1-based position of event u in order; pos[0] is unused
    pos = [0] * (len(order) + 1)
    for p, u in enumerate(order, 1):
        pos[u] = p
    return pos


def check_sc_oracle(
    trace: Trace, bound: int = ORACLE_BOUND_DEFAULT
) -> Optional[SerialWitness]:
    """Return a serial witness if the trace is sequentially consistent.

    The witness is the lexicographically least valid one, comparing the
    sequences (f(1), f(2), ...).  One search over program-order
    interleavings decides SC and yields a serialization; `_lex_min_witness`
    then fixes f(1), f(2), ... in turn and searches again only for a
    position smaller than the one the kept serialization already gives.
    That is exact: the kept serialization meets every position fixed so
    far, so it proves its own position feasible, and each smaller one is
    decided by a search of its own.
    """
    if bound < 0:
        raise ParameterError(f"oracle bound must be >= 0, got {bound}")
    total = len(trace)
    if total > bound:
        raise OracleBoundError(total, bound)
    progs = _programs(trace)
    steps, width = _steps(trace)
    order = _feasible_with_pins(steps, width, progs, {})
    if order is None:
        return None
    return SerialWitness(_lex_min_witness(steps, width, progs, order))
