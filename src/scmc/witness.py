"""Constraint graphs induced by the simple write-order witness.

For an unambiguous causal trace, the trace order of the writes to a
location (the simple witness) expands to a relation on all events at that
location; the constraint graph joins those relations with per-processor
program order.  Acyclicity of this graph certifies sequential consistency.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Iterable, Iterator, Optional

from .errors import ParameterError, PreconditionError
from .events import READ, WRITE, Trace
from .protocol import _Memo


class _lazy:
    """An attribute computed by `build` on first access, then stored.

    A non-data descriptor: the value it stores in the instance's `__dict__`
    shadows it, so later reads are plain attribute lookups.
    """

    def __init__(self, build):
        self.build = build
        self.name = build.__name__
        self.__doc__ = build.__doc__

    def __get__(self, graph, owner=None):
        if graph is None:
            return self
        value = graph.__dict__[self.name] = self.build(graph)
        return value


@dataclass(frozen=True)
class ConstraintGraph:
    """Vertices are 1..len(trace); edges are program order plus expanded order.

    Both kinds of edge are implicit.  (u, v) is a processor edge iff the two
    events share a processor and u < v.  For location edges every event has
    a rank: 0 if it carries data 0, else i when its value is that of the
    i-th write to its location in trace order.  Its level is twice its
    rank, plus one for a read.  The expanded order of a location is then
    exactly level(x) < level(y): lower rank first, and within a rank the
    write before the reads of its value.  `build_constraint_graph` ranks
    the events in one pass, and an edge query is an integer compare.

    `successors` gives the transitive reduction: each event's next event on
    its processor and, at its location, a read's next write (the first
    write for a read of 0) or a write's readers and next write.  It has the
    reachability of the full graph and at most 3 * len(trace) edges.  The
    indexes that it and the nice-cycle search use (`_next_on_proc`,
    `_readers`, `_components` and the `_loc_successors` memo) are built on
    first use, once per graph, so callers that only query edge labels
    never pay for them.  They are `_lazy` attributes, not
    `functools.cached_property` ones: before Python 3.12 a cached_property
    takes a lock on each first access (1.2 us against 0.3 us for `_lazy`
    on Python 3.11), and a graph of a few events pays that once per index
    for an index that takes about as long to build.
    """

    trace: Trace
    loc_members: dict[int, tuple[int, ...]]  # per location that occurs
    writes: dict[int, tuple[int, ...]]  # per location that occurs, in trace order
    level: tuple[int, ...]  # level[v] for v in 1..len(trace); level[0] unused

    def __len__(self) -> int:
        return len(self.trace)

    def proc_edge_label(self, u: int, v: int) -> Optional[int]:
        eu, ev = self.trace.events[u - 1], self.trace.events[v - 1]
        if u < v and eu.proc == ev.proc:
            return eu.proc
        return None

    def loc_edge_label(self, u: int, v: int) -> Optional[int]:
        loc = self.trace.events[u - 1].loc
        if loc == self.trace.events[v - 1].loc and self.level[u] < self.level[v]:
            return loc
        return None

    @_lazy
    def _next_on_proc(self) -> list[int]:
        """The next event on each event's processor, 0 for a last one."""
        events = self.trace.events
        following = [0] * (len(events) + 1)
        last: dict[int, int] = {}
        for v in range(len(events), 0, -1):
            proc = events[v - 1].proc
            following[v] = last.get(proc, 0)
            last[proc] = v
        return following

    def _later_on_proc(self, u: int) -> Iterator[int]:
        """The events after u on u's processor, ascending."""
        following = self._next_on_proc
        v = following[u]
        while v:
            yield v
            v = following[v]

    @_lazy
    def _readers(self) -> dict[int, list[int]]:
        """Each write that is read, to its readers ascending."""
        readers: dict[int, list[int]] = {}
        level = self.level
        for v, e in enumerate(self.trace.events, 1):
            if e.op == READ and level[v] > 1:
                w = self.writes[e.loc][level[v] // 2 - 1]
                readers.setdefault(w, []).append(v)
        return readers

    def successors(self, u: int) -> tuple[int, ...]:
        """u's successors in the transitive reduction, ascending."""
        succs = list(self._readers.get(u, ()))
        writes = self.writes[self.trace.events[u - 1].loc]
        rank = self.level[u] // 2
        if rank < len(writes):
            succs.append(writes[rank])
        chain = self._next_on_proc[u]
        if chain:
            succs.append(chain)
        return tuple(sorted(succs))

    @_lazy
    def _components(self) -> tuple[list[int], Optional[tuple[int, ...]]]:
        """Each vertex's strongly connected component id, and the first cycle.

        The only traversal of the graph: one iterative pass of Tarjan's
        algorithm over `successors`, which fetches each vertex's successors
        once.  The transitive reduction has the reachability of the full
        graph, so it has the same components.  The graph has no self-loops,
        so a vertex is on a cycle iff its component has another member; its
        id is then its component's, counting from 1 in the order components
        close, and 0 otherwise.

        The first cycle is closed by the first edge u -> v met with v still
        on Tarjan's stack, or is None if there is no such edge.  Until that
        edge no lowlink has fallen, so every finished vertex has closed a
        singleton component and the stack is the depth-first path.  The edge
        is then a back edge, index[v] < index[u] = low[u], and the cycle is
        the path from v to u: the cycle a plain depth-first search, taking
        roots and successors in the same ascending order, meets first.
        """
        size = len(self)
        successors = self.successors
        index = [0] * (size + 1)  # discovery number, 0 before discovery
        low = [0] * (size + 1)
        # a vertex whose component has closed gets an index above every
        # discovery number, so it never lowers a lowlink
        closed_index = size + 1
        component = [0] * (size + 1)
        cycle: Optional[tuple[int, ...]] = None
        stack: list[int] = []
        discovered = closed = 0
        for root in range(1, size + 1):
            if index[root]:
                continue
            discovered += 1
            index[root] = low[root] = discovered
            stack.append(root)
            path = [root]
            pending = [iter(successors(root))]
            while pending:
                u = path[-1]
                for v in pending[-1]:
                    if not index[v]:
                        discovered += 1
                        index[v] = low[v] = discovered
                        stack.append(v)
                        path.append(v)
                        pending.append(iter(successors(v)))
                        break
                    if index[v] < low[u]:
                        # only a v still on the stack lowers a lowlink
                        low[u] = index[v]
                        if cycle is None:
                            cycle = tuple(path[path.index(v) :])
                else:
                    path.pop()
                    pending.pop()
                    if path and low[u] < low[path[-1]]:
                        low[path[-1]] = low[u]
                    if low[u] != index[u]:
                        continue
                    w = stack.pop()
                    index[w] = closed_index
                    if w != u:
                        closed += 1
                        component[w] = closed
                        while w != u:
                            w = stack.pop()
                            index[w] = closed_index
                            component[w] = closed
        return component, cycle

    @_lazy
    def _loc_successors(self) -> _Memo:
        """Each u to every v with a location edge u -> v, ascending, on demand."""
        events, level, members = self.trace.events, self.level, self.loc_members

        def later(u: int) -> tuple[int, ...]:
            low = level[u]
            return tuple(v for v in members[events[u - 1].loc] if level[v] > low)

        return _Memo(later)


def build_constraint_graph(trace: Trace) -> ConstraintGraph:
    """The constraint graph of an unambiguous causal trace.

    Raises PreconditionError for any other trace.  The ranking pass checks
    both preconditions itself.  Per location it ranks value 0 and then each
    write's value, so a write of a value already ranked makes the trace
    ambiguous, and a read of a value never ranked makes it not causal.
    Every write is ranked before any read's level is looked up, so an
    ambiguous trace is reported as ambiguous even if it is not causal.
    """
    # keyed by the locations that occur, not 1..m: a header may declare far
    # more locations than the events use
    members: dict[int, list[int]] = {}
    writes: dict[int, list[int]] = {}
    rank: dict[tuple[int, int], int] = {}  # (location, value) -> rank
    for v, (op, _proc, loc, data) in enumerate(trace.events, 1):
        at = members.get(loc)
        if at is None:
            at = members[loc] = []
            writes[loc] = []
            rank[loc, 0] = 0
        at.append(v)
        if op == WRITE:
            if (loc, data) in rank:
                raise PreconditionError("trace is ambiguous (repeated or zero write values)")
            ws = writes[loc]
            ws.append(v)
            rank[loc, data] = len(ws)
    # every write and every value 0 is ranked, so -1 marks a read of a
    # value no write gives
    level = (0, *[2 * rank.get((loc, data), -1) + (op == READ)
                  for op, _proc, loc, data in trace.events])
    if -1 in level:
        raise PreconditionError("trace is not causal (read without a matching write)")
    loc_members = {j: tuple(vs) for j, vs in members.items()}
    loc_writes = {j: tuple(ws) for j, ws in writes.items()}
    return ConstraintGraph(trace, loc_members, loc_writes, level)


def find_cycle(graph: ConstraintGraph) -> Optional[tuple[int, ...]]:
    """Some cycle as a vertex tuple (v1, ..., vl) with vl -> v1, or None.

    The first cycle that the depth-first component pass closes
    (`ConstraintGraph._components`), which walks the transitive reduction
    (`ConstraintGraph.successors`): it has a cycle iff the full graph has
    one, and each step of a cycle in it is an edge of the full graph.  The
    pass is linear in the trace length and runs once per graph, for this
    and the nice-cycle search together.  Roots and successors are taken in
    ascending order, so the result is deterministic, but it is just some
    cycle, not a least or shortest one.
    """
    return graph._components[1]


@dataclass(frozen=True)
class NiceCycle:
    """Alternating cycle u1, v1, ..., uk, vk of processor and location edges.

    (u_x, v_x) is a processor edge labelled procs[x-1]; the location edge
    leaving v_x enters u_{x+1} (cyclically) and is labelled locs[x-1].
    Processor labels are pairwise distinct, as are location labels.
    `canonical` follows from the labels; a flag passed as a fourth argument,
    as read back from to_json, must agree with them (else ParameterError).
    """

    vertices: tuple[int, ...]
    procs: tuple[int, ...]
    locs: tuple[int, ...]
    claimed_canonical: InitVar[Optional[bool]] = None

    def __post_init__(self, claimed_canonical: Optional[bool]) -> None:
        if claimed_canonical not in (None, self.canonical):
            raise ParameterError(f"canonical={claimed_canonical} disagrees with the labels")

    @property
    def k(self) -> int:
        return len(self.procs)

    @property
    def canonical(self) -> bool:
        """Whether procs are 1, ..., k and locs are 2, ..., k, 1."""
        k = self.k
        return self.procs == tuple(range(1, k + 1)) and self.locs == tuple(
            x % k + 1 for x in range(1, k + 1)
        )

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "vertices": list(self.vertices),
            "procs": list(self.procs),
            "locs": list(self.locs),
            "canonical": self.canonical,
        }


def verify_nice_cycle(graph: ConstraintGraph, cycle: NiceCycle) -> bool:
    """Whether `cycle` is a nice cycle of `graph`, with k >= 1.

    Its vertices are checked to lie in 1..len(graph) before any edge is
    queried, since a position below 1 would index the trace from its end.
    """
    k = cycle.k
    verts = cycle.vertices
    if k < 1 or len(verts) != 2 * k or len(set(verts)) != 2 * k:
        return False
    if not all(1 <= v <= len(graph) for v in verts):
        return False
    if len(set(cycle.procs)) != k or len(set(cycle.locs)) != k:
        return False
    for x in range(1, k + 1):
        u, v = verts[2 * x - 2], verts[2 * x - 1]
        u_next = verts[(2 * x) % (2 * k)]
        if graph.proc_edge_label(u, v) != cycle.procs[x - 1]:
            return False
        if graph.loc_edge_label(v, u_next) != cycle.locs[x - 1]:
            return False
    return True


def find_nice_cycle(graph: ConstraintGraph, k: int) -> Optional[NiceCycle]:
    """Search for a k-nice cycle; deterministic, least vertex tuple first.

    Backtracks over the pairs (u_1, v_1), ..., (u_k, v_k) in lexicographic
    vertex order, enumerating only edges of the graph: u_1 is any vertex,
    u_x for x > 1 a location successor of v_{x-1}, and v_x a later event on
    u_x's processor.  The edge leaving v_x is labelled with v_x's location,
    and the closing edge v_k -> u_1 makes that u_1's location.  So v_x for
    x < k skips u_1's location and those of v_1..v_{x-1}, and the same walk
    closes the cycle at the first v_k at u_1's location with a lower level.
    Only choices that cannot close are skipped, so the first cycle found is
    the least one.

    Two cases follow from the levels.  Reads of one value have equal
    levels, so no location edge joins them either way, and neither can be
    the location successor of the other.  And two events of one processor
    at one location are joined by a processor edge and, when their levels
    differ, by a location edge too, so one vertex can carry both kinds of
    edge to the same neighbour.  The search gives each step its role: at
    k = 1, (u_1, v_1) is the processor edge and v_1 -> u_1 the location
    edge back, as when a read returns a value older than an earlier event
    of its own processor saw or wrote.

    A nice cycle is a cycle of the graph, so its vertices share one strongly
    connected component (`ConstraintGraph._components`).  u_1 is taken only
    from vertices on some cycle, and every later vertex only from u_1's
    component; v_k needs no test, as its edge into u_1 puts it there.
    Those are choices that cannot close either, and the rest keep their
    order, so the first cycle found is still the least one.  The search
    stays inside one component, and on an acyclic graph it enumerates
    nothing.
    """
    params = graph.trace.params
    if not 1 <= k <= min(params.n, params.m):
        raise ParameterError(f"k {k} outside 1..{min(params.n, params.m)}")
    events = graph.trace.events
    level = graph.level
    component = graph._components[0]
    verts: list[int] = []
    procs: list[int] = []
    locs: list[int] = []  # locs[x-1] is the location of v_x

    def extend(x: int, candidates: Iterable[int]) -> Optional[NiceCycle]:
        for u in candidates:
            proc = events[u - 1].proc
            if proc in procs:
                continue
            first = verts[0] if verts else u
            comp = component[first]
            if component[u] != comp:
                continue
            home = events[first - 1].loc
            verts.append(u)
            procs.append(proc)
            for v in graph._later_on_proc(u):
                loc = events[v - 1].loc
                if x == k:  # the closing step, an edge v -> u_1
                    if loc == home and level[v] < level[first]:
                        return NiceCycle((*verts, v), tuple(procs), (*locs, home))
                elif loc != home and loc not in locs and component[v] == comp:
                    verts.append(v)
                    locs.append(loc)
                    found = extend(x + 1, graph._loc_successors[v])
                    if found is not None:
                        return found
                    verts.pop()
                    locs.pop()
            verts.pop()
            procs.pop()
        return None

    return extend(1, [u for u in range(1, len(graph) + 1) if component[u]])


def find_minimal_nice_cycle(graph: ConstraintGraph) -> Optional[NiceCycle]:
    """The nice cycle with the least k, searching k ascending."""
    if graph._components[1] is None:
        return None  # a nice cycle is a cycle
    params = graph.trace.params
    for k in range(1, min(params.n, params.m) + 1):
        cycle = find_nice_cycle(graph, k)
        if cycle is not None:
            return cycle
    return None
