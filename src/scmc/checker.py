"""Explicit-state reachability over a protocol composed with the monitors.

For cycle size k, the product of a protocol (data domain {0, 1, 2}) with one
write-order constraint per location and one violation check per processor
1..k is explored from all initial states.  A reachable state where every
monitor accepts yields a counterexample run whose fresh-value replay
carries a canonical k-nice cycle in its constraint graph; exhausting the
product without reaching one means no such cycle exists at this k.
"""
from __future__ import annotations

import functools
import gc
import sys
from array import array
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Optional

from .errors import ParameterError, PreconditionError, SoundnessError
from .events import (
    READ,
    Event,
    MemoryEvent,
    Params,
    Run,
    Trace,
    event_to_json,
    project_trace,
)
from .monitors import CheckAutomaton, ConstrainAutomaton, accepts
from .protocol import MemorySystem, _Memo, permute_event, replay_unambiguous
from .witness import NiceCycle, build_constraint_graph, verify_nice_cycle

DEFAULT_MAX_STATES = 50_000_000
_SUCC_CACHE_MAX = 1 << 18

NO_VIOLATION = "no_violation"
COUNTEREXAMPLE = "counterexample"
INCONCLUSIVE = "inconclusive"


def _initial_owners(protocol: MemorySystem, state) -> Optional[tuple[int, ...]]:
    """The owner vector of an initial state, if the system's states have one."""
    return getattr(protocol.view(state), "owner", None)


def _owners_json(owners: Optional[tuple[int, ...]]) -> Optional[list[int]]:
    return None if owners is None else list(owners)


@dataclass(frozen=True)
class Verdict:
    k: int
    result: str
    states: int
    transitions: int
    max_depth: int
    run: Optional[Run] = None
    cycle: Optional[NiceCycle] = None
    trace: Optional[Trace] = None
    initial_state: Optional[object] = None
    initial_owners: Optional[tuple[int, ...]] = None  # the initial state's, if it has any

    def to_json(self) -> dict:
        out: dict = {
            "k": self.k,
            "result": self.result,
            "states": self.states,
            "transitions": self.transitions,
            "max_depth": self.max_depth,
            "run": None,
            "cycle": None,
            "unambiguous_trace": None,
        }
        if self.run is not None:
            out["run"] = [event_to_json(e) for e in self.run.events]
        if self.cycle is not None:
            out["cycle"] = self.cycle.to_json()
        if self.trace is not None:
            out["unambiguous_trace"] = [event_to_json(e) for e in self.trace.events]
        out["initial_owners"] = _owners_json(self.initial_owners)
        return out


def extract_cycle(
    protocol: MemorySystem, run: Run, initial_state, k: int
) -> tuple[Trace, NiceCycle]:
    """Turn an accepted run into its unambiguous trace and verified cycle.

    u_x is the position where check x first leaves its initial phase, v_x
    the position where it first enters err; these positions, read in the
    fresh-value replay of the run, form a canonical k-nice cycle, which is
    re-verified against the constraint graph before being returned.
    """
    proj = project_trace(run)
    for j in range(1, protocol.m + 1):
        if not accepts(proj, ConstrainAutomaton(j, k)):
            raise PreconditionError(f"run rejected by the location-{j} constraint")
    vertices: list[int] = []
    for i in range(1, k + 1):
        check = CheckAutomaton(i, k)
        phase = check.initial()
        for idx, e in enumerate(proj.events, 1):
            phase2 = check.step(phase, e)
            if phase2 != phase:  # a -> b at u_x, then b -> err at v_x
                vertices.append(idx)
            phase = phase2
        if not check.accepting(phase):
            raise PreconditionError(f"run not accepted by the processor-{i} check")
    trace = replay_unambiguous(protocol, run, initial_state)
    cycle = NiceCycle(
        vertices=tuple(vertices),
        procs=tuple(range(1, k + 1)),
        locs=tuple(x % k + 1 for x in range(1, k + 1)),
    )
    graph = build_constraint_graph(trace)
    if not verify_nice_cycle(graph, cycle):
        raise SoundnessError(f"extracted cycle {cycle} is not a cycle of the replay graph")
    return trace, cycle


def _gc_paused(fn):
    """Run fn with the cyclic garbage collector paused.

    A search allocates millions of tuples and bytes, and the collector would
    keep re-walking the growing visited map.  Nothing on the search path
    forms a reference cycle, so reference counting alone frees it all; the
    maps are gone when fn returns, before the collector resumes.  The
    collector is resumed only if it was running before.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


class _Search(NamedTuple):
    keys: array  # every key reached, in discovery order; a key's id is its index
    parent: array  # id -> the id it was first reached from; -1 for roots
    event: list  # id -> the event that first reached it; None for roots
    transitions: int
    max_depth: int
    goal: Optional[tuple]  # (id, depth) of the first key reached in a goal mid
    exceeded: bool  # stopped because more than max_states keys were reached


_BITS = tuple(1 << b for b in range(8))


def _search(roots, cache, fill, size, max_states, depth_limit=None, goal=frozenset()) -> _Search:
    """Breadth-first search over int keys base + mid, 0 <= mid < size.

    The loop applies the monitor tables itself.  base's successors are the
    flat tuple (edge, base2, edge, base2, ...) that is cache.get(base), or
    fill(base) if that is None.  An edge is a table from mid to mid2 with
    its event appended; one that moves nothing is the identity table.  The
    successor of base + mid is base2 + mid2, or none if mid2 is None, and
    each one counts as a transition.  Keys at depth_limit are reached but
    not expanded.  The search stops at the first newly reached key whose
    mid is in goal, or once more than max_states keys (None: no bound) are
    reached.  Breadth-first order makes the path to a goal a shortest one.

    Keys are numbered in discovery order and kept in int arrays, so no
    structure holds an object per key.  The visited set is one bitmap, bit
    key & 7 of byte key >> 3.  A key past its end grows it to twice its
    length, or to the key's byte if that is further, so it is at most twice
    the bytes the largest key needs.  That is small only for dense keys:
    every caller numbers its bases 0, size, 2 * size, ... in discovery
    order, via _numbering.  A level ends where `keys` ended when it began.
    """
    keys = array("q", dict.fromkeys(roots))
    visited = bytearray()

    def grow(key: int) -> None:
        visited.extend(bytes(max(len(visited), (key >> 3) + 1 - len(visited))))

    bits = _BITS
    for key in keys:
        if key >> 3 >= len(visited):
            grow(key)
        visited[key >> 3] |= bits[key & 7]
    parent = array("q", [-1]) * len(keys)
    event: list = [None] * len(keys)
    bound = sys.maxsize if max_states is None else max_states
    append, append_parent, append_event = keys.append, parent.append, event.append
    cached = cache.get
    transitions = depth = 0
    level_end = len(keys)
    for i, key in enumerate(keys):
        if i == level_end:
            depth += 1
            level_end = len(keys)
        if depth == depth_limit:
            break
        mid = key % size
        base = key - mid
        succ = cached(base)
        if succ is None:
            succ = fill(base)
        it = iter(succ)
        for edge, base2 in zip(it, it):
            mid2 = edge[mid]
            if mid2 is None:  # a constraint blocks this write
                continue
            key2 = base2 + mid2
            transitions += 1
            if key2 == key:  # back to itself, as a read that moves no monitor
                continue
            try:
                if visited[key2 >> 3] & bits[key2 & 7]:
                    continue
            except IndexError:  # past the bitmap's end
                grow(key2)
            visited[key2 >> 3] |= bits[key2 & 7]
            append(key2)
            append_parent(i)
            append_event(edge[-1])
            if mid2 in goal:
                goal_at = (len(keys) - 1, depth + 1)
                return _Search(keys, parent, event, transitions, depth, goal_at, False)
            if len(keys) > bound:
                return _Search(keys, parent, event, transitions, depth, None, True)
    return _Search(keys, parent, event, transitions, depth, None, False)


def _numbering(scale: int = 1) -> tuple[list, _Memo]:
    """A list and a memo that numbers each new value by appending it there.

    Values are numbered 0, scale, 2 * scale, ... in the order first met,
    so a value's number divided by scale is its index in the list.  When a
    search meets values numbered with scale 1 in discovery order, a value's
    number is its search id.
    """
    values: list = []

    def number(x) -> int:
        values.append(x)
        return (len(values) - 1) * scale

    return values, _Memo(number)


def _path(found: _Search, i: int) -> tuple[object, tuple[Event, ...]]:
    """The root key id i was reached from, and the events leading there."""
    events: list[Event] = []
    while found.parent[i] >= 0:
        events.append(found.event[i])
        i = found.parent[i]
    return found.keys[i], tuple(reversed(events))


def _check_max_states(max_states) -> None:
    if type(max_states) is not int or max_states < 1:
        raise ParameterError(f"max_states must be an int >= 1, got {max_states!r}")


@_gc_paused
def model_check(protocol: MemorySystem, k: int, max_states: int = DEFAULT_MAX_STATES) -> Verdict:
    """Explore the monitor product at cycle size k until a violation or closure.

    The search is breadth-first, so the first counterexample found is a
    shortest one.  Exceeding max_states returns an inconclusive verdict
    rather than an error.
    """
    if protocol.v != 2:
        raise ParameterError(f"monitor composition requires v = 2, protocol has v = {protocol.v}")
    k_max = min(protocol.n, protocol.m)
    if type(k) is not int or not 1 <= k <= k_max:
        raise ParameterError(f"k must be an int in 1..{k_max}, got {k!r}")
    _check_max_states(max_states)

    # A product key is one int, pid * size + mid.  mid indexes `vectors`,
    # the tuples of monitor phases: one constraint per location, then one
    # check per processor 1..k.  pid numbers the protocol state keys of the
    # initial states, then of each expanded state's successors in order,
    # skipping successors whose event every vector blocks; `state_keys`
    # keeps each key, the state itself (encode_state and decode_state are
    # the identity).  Keys stay below (number of pids) * size, so the
    # visited bitmap needs about size bits per protocol state.
    automata = [ConstrainAutomaton(j, k) for j in range(1, protocol.m + 1)]
    automata += [CheckAutomaton(i, k) for i in range(1, k + 1)]
    vectors = list(product(*[a.states for a in automata]))
    size = len(vectors)
    mids = {vec: mid for mid, vec in enumerate(vectors)}
    unmoved = tuple(range(size))
    # protocol state key <-> pid * size, one int object per pid
    state_keys, bases = _numbering(size)
    numbered, new_key = bases.get, state_keys.append
    succ_cache: dict[int, tuple] = {}  # pid * size -> (edge, base2, edge, base2, ...)
    successors, encode, decode = protocol.successors, protocol.encode_state, protocol.decode_state

    def edge_of(e: Event) -> Optional[tuple]:
        """e's table from mid to the mid after e (None: a constraint blocks
        it), with e appended; None if every monitor vector blocks e."""
        if type(e) is not MemoryEvent:
            return (*unmoved, e)
        table = []
        for vec in vectors:
            vec2 = tuple([a.step(p, e) for a, p in zip(automata, vec)])
            table.append(None if None in vec2 else mids[vec2])
        return None if table.count(None) == size else (*table, e)

    edges = _Memo(edge_of)

    def successors_of(base: int) -> tuple:
        if len(succ_cache) >= _SUCC_CACHE_MAX:
            succ_cache.clear()
        x = state_keys[base // size]
        # A successor every monitor vector blocks, such as a write of 1 or
        # 2 to a location above k, is never numbered or cached; the others
        # are numbered here as the memo would number them.  encode and
        # decode are the identity, called on every successor and expanded
        # state only because perfbench gates their call counts.  The cache
        # is flat and keyed by the memo's own int, so it holds one tuple
        # per protocol state and no object of its own.
        succ: list = []
        add = succ.append
        for e, ps2 in successors(decode(x)):
            key2 = encode(ps2)
            edge = edges[e]
            if edge is not None:
                base2 = numbered(key2)
                if base2 is None:
                    new_key(key2)
                    base2 = bases[key2] = (len(state_keys) - 1) * size
                add(edge)
                add(base2)
        succ = succ_cache[bases[x]] = tuple(succ)
        return succ

    start = mids[tuple(a.initial() for a in automata)]
    goal = frozenset(
        mid for mid, vec in enumerate(vectors)
        if all(a.accepting(p) for a, p in zip(automata, vec))
    )
    roots: dict[int, object] = {}
    for ps in protocol.initial_states():
        roots.setdefault(bases[encode(ps)] + start, ps)
    found = _search(roots, succ_cache, successors_of, size, max_states, goal=goal)
    states = len(found.keys)
    if found.goal is None:
        result = INCONCLUSIVE if found.exceeded else NO_VIOLATION
        return Verdict(k, result, states, found.transitions, found.max_depth)
    i, depth = found.goal
    root, path = _path(found, i)
    init = roots[root]
    run = Run(path, Params(protocol.n, protocol.m, 2))
    trace, cycle = extract_cycle(protocol, run, init, k)
    owners = _initial_owners(protocol, init)
    return Verdict(
        k, COUNTEREXAMPLE, states, found.transitions, depth, run, cycle, trace, init, owners
    )


@_gc_paused
def explore_protocol(protocol: MemorySystem, max_states: Optional[int] = None) -> tuple[int, int]:
    """Reachable (states, transitions) of the bare protocol, no monitors."""
    if max_states is not None:
        _check_max_states(max_states)
    state_keys, ids = _numbering()  # id <-> protocol state key

    def successors_of(i: int) -> list:
        succ = protocol.successors(protocol.decode_state(state_keys[i]))
        return [x for e, ps2 in succ for x in ((0, e), ids[protocol.encode_state(ps2)])]

    roots = [ids[protocol.encode_state(ps)] for ps in protocol.initial_states()]
    found = _search(roots, {}, successors_of, 1, max_states)
    if found.exceeded:
        raise ParameterError(f"protocol exceeds {max_states} states")
    return len(found.keys), found.transitions


@dataclass(frozen=True)
class CausalityViolation:
    run: Run
    initial_state: object  # the state the run starts from
    initial_owners: Optional[tuple[int, ...]] = None  # the initial state's, if it has any

    @property
    def index(self) -> int:
        """The 1-based position of the acausal read, the run's last event."""
        return len(self.run)

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "event": event_to_json(self.run.events[self.index - 1]),
            "run": [event_to_json(e) for e in self.run.events],
            "initial_owners": _owners_json(self.initial_owners),
        }


@dataclass(frozen=True)
class SymmetryViolation:
    kind: str
    perm: tuple[int, ...]
    run: Run
    initial_state: object  # the state the run starts from
    initial_owners: Optional[tuple[int, ...]] = None  # the initial state's, if it has any

    @property
    def failed_at(self) -> int:
        """The 1-based position, in the permuted run, of the first event the
        permuted system does not match: the one after the run."""
        return len(self.run) + 1

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "perm": list(self.perm),
            "failed_at": self.failed_at,
            "run": [event_to_json(e) for e in self.run.events],
            "initial_owners": _owners_json(self.initial_owners),
        }


@dataclass(frozen=True)
class AssumptionReport:
    """What validate_assumptions found.  The violation tuples keep at most
    the first 20 of each kind; the totals count them all."""

    depth: int
    nodes: int
    edges: int
    causality_violations: tuple[CausalityViolation, ...]
    symmetry_checks: int
    symmetry_violations: tuple[SymmetryViolation, ...]
    causality_total: int
    symmetry_total: int

    @property
    def ok(self) -> bool:
        return not self.causality_total and not self.symmetry_total

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "nodes": self.nodes,
            "edges": self.edges,
            "causality_violations": [v.to_json() for v in self.causality_violations],
            "causality_total": self.causality_total,
            "symmetry_checks": self.symmetry_checks,
            "symmetry_violations": [v.to_json() for v in self.symmetry_violations],
            "symmetry_total": self.symmetry_total,
            "ok": self.ok,
        }


DEFAULT_VALIDATION_DEPTH = 6
_VIOLATION_CAP = 20


@_gc_paused
def validate_assumptions(
    protocol: MemorySystem,
    depth: int = DEFAULT_VALIDATION_DEPTH,
) -> AssumptionReport:
    """Bounded check of the causality and symmetry assumptions.

    Explores all runs up to `depth` events, collapsed to (state, values
    written so far per location) nodes, which preserves exactly what the
    causality check depends on.  A read of a nonzero value never written to
    its location is a causality violation in the run leading to it.

    Symmetry is checked for each swap pi of two adjacent processors or two
    adjacent locations.  pi must map the initial states onto themselves, and
    each distinct protocol state s the search expands must have
    successors(pi.s) equal to {(pi.e, pi.s2) for e, s2 in successors(s)}; a
    failure is a symmetry violation in the run to s.  Swaps generate every
    permutation, so if no check fails, every permutation of every run of at
    most `depth` events is again a run from an initial state (Ip & Dill,
    "Better verification through symmetry", FMSD 1996).
    """
    if type(depth) is not int or depth < 0:
        raise ParameterError(f"depth must be an int >= 0, got {depth!r}")
    swaps = [
        (kind, (*range(1, i), i + 1, i, *range(i + 2, size + 1)))
        for kind, size in (("proc", protocol.n), ("loc", protocol.m))
        for i in range(1, size)
    ]
    successors, permute_state = protocol.successors, protocol.permute_state
    empty_written = (frozenset(),) * protocol.m
    by_id, ids = _numbering()  # id <-> (state key, written)
    roots: dict[int, object] = {}
    for ps in protocol.initial_states():
        roots.setdefault(ids[(protocol.encode_state(ps), empty_written)], ps)
    acausal: list[tuple[int, MemoryEvent]] = []  # (node id, read) pairs
    initial = set(roots.values())
    asymmetric = [  # (node id, kind, perm) triples
        (i, kind, perm) for i, ps in roots.items() for kind, perm in swaps
        if permute_state(ps, kind, perm) not in initial
    ]
    checked = set()  # the state keys whose successors were compared

    def successors_of(node_id: int) -> list:
        key, written = by_id[node_id]
        state = protocol.decode_state(key)
        succ = successors(state)
        if key not in checked:
            checked.add(key)
            for kind, perm in swaps:
                image = {
                    (permute_event(protocol, e, kind, perm), permute_state(s2, kind, perm))
                    for e, s2 in succ
                }
                if set(successors(permute_state(state, kind, perm))) != image:
                    asymmetric.append((node_id, kind, perm))
        out: list = []
        for e, ps2 in succ:
            written2 = written
            if isinstance(e, MemoryEvent) and e.data != 0:
                values = written[e.loc - 1]
                if e.op == READ:
                    if e.data not in values:
                        acausal.append((node_id, e))
                elif e.data not in values:
                    written2 = written[: e.loc - 1] + (values | {e.data},) + written[e.loc :]
            out += (0, e), ids[(protocol.encode_state(ps2), written2)]
        return out

    found = _search(roots, {}, successors_of, 1, None, depth_limit=depth)

    def run_to(i: int, *extra: Event) -> tuple:
        """The run to node i, then extra; its initial state and owners."""
        root, path = _path(found, i)
        init = roots[root]
        run = Run(path + extra, Params(protocol.n, protocol.m, protocol.v))
        return run, init, _initial_owners(protocol, init)

    return AssumptionReport(
        depth=depth,
        nodes=len(found.keys),
        edges=found.transitions,
        causality_violations=tuple(
            CausalityViolation(*run_to(i, e)) for i, e in acausal[:_VIOLATION_CAP]
        ),
        symmetry_checks=len(swaps) * (len(roots) + len(checked)),
        symmetry_violations=tuple(
            SymmetryViolation(kind, perm, *run_to(i))
            for i, kind, perm in asymmetric[:_VIOLATION_CAP]
        ),
        causality_total=len(acausal),
        symmetry_total=len(asymmetric),
    )
