"""Constraint graphs induced by the simple write-order witness.

For an unambiguous causal trace, the order of writes to a location (the
simple witness) expands to a relation on all events at that location; the
constraint graph joins those relations with per-processor program order.
Acyclicity of this graph certifies sequential consistency.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .analysis import is_causal, is_unambiguous
from .errors import ParameterError, PreconditionError
from .events import READ, WRITE, Trace, loc_indices, write_indices


class SimpleWitness:
    """Orders each location's writes by their position in the trace."""

    def precedes(self, trace: Trace, loc: int, a: int, b: int) -> bool:
        return a < b


SIMPLE_WITNESS = SimpleWitness()


def _require_unambiguous_causal(trace: Trace) -> None:
    if not is_unambiguous(trace):
        raise PreconditionError("trace is ambiguous (repeated or zero write values)")
    if not is_causal(trace):
        raise PreconditionError("trace is not causal (read without a matching write)")


def expanded_order(
    trace: Trace, loc: int, witness: SimpleWitness = SIMPLE_WITNESS
) -> frozenset[tuple[int, int]]:
    """Pairs (x, y) of positions at `loc` ordered by the expanded witness.

    (x, y) is in the relation iff any of:
      1. x is a write and y a read of the same value;
      2. x carries data 0 and y nonzero data;
      3. the writes sourcing x's and y's values are witness-ordered x-first.
    """
    if not 1 <= loc <= trace.params.m:
        raise ParameterError(f"loc {loc} outside 1..{trace.params.m}")
    graph = build_constraint_graph(trace, witness)
    members = graph.loc_members[loc]
    return frozenset(
        (x, y) for x in members for y in members if graph._loc_pair(loc, x, y)
    )


@dataclass(frozen=True)
class ConstraintGraph:
    """Vertices are 1..len(trace); edges are program order plus expanded order.

    Program-order edges are kept implicit: (u, v) is a processor edge iff the
    two events share a processor and u < v.  Location edges are evaluated on
    demand from the per-location write sources, never materialized: traces
    extracted from deep searches can make the pair relation quadratically
    large while consumers only probe a handful of memberships.  For cycle
    search, per-processor successor chains are enough since a transitive
    processor edge never creates a cycle the chain does not already give.
    """

    trace: Trace
    witness: SimpleWitness
    loc_members: dict[int, tuple[int, ...]]
    source: dict[int, dict[int, int]]

    def __len__(self) -> int:
        return len(self.trace)

    def proc_edge_label(self, u: int, v: int) -> Optional[int]:
        eu, ev = self.trace.events[u - 1], self.trace.events[v - 1]
        if u < v and eu.proc == ev.proc:
            return eu.proc
        return None

    def _loc_pair(self, loc: int, x: int, y: int) -> bool:
        ex, ey = self.trace.events[x - 1], self.trace.events[y - 1]
        if ex.data == ey.data and ex.op == WRITE and ey.op == READ:
            return True
        if ex.data == 0 and ey.data != 0:
            return True
        if ex.data != 0 and ey.data != 0:
            src = self.source[loc]
            a, b = src.get(ex.data), src.get(ey.data)
            if a is not None and b is not None:
                return self.witness.precedes(self.trace, loc, a, b)
        return False

    def loc_edge_label(self, u: int, v: int) -> Optional[int]:
        loc = self.trace.events[u - 1].loc
        if loc == self.trace.events[v - 1].loc and self._loc_pair(loc, u, v):
            return loc
        return None

    def successors(self, u: int) -> tuple[int, ...]:
        succs = set()
        e = self.trace.events[u - 1]
        for v in range(u + 1, len(self.trace) + 1):
            if self.trace.events[v - 1].proc == e.proc:
                succs.add(v)  # chain successor
                break
        for y in self.loc_members[e.loc]:
            if y != u and self._loc_pair(e.loc, u, y):
                succs.add(y)
        return tuple(sorted(succs))


def build_constraint_graph(
    trace: Trace, witness: SimpleWitness = SIMPLE_WITNESS
) -> ConstraintGraph:
    _require_unambiguous_causal(trace)
    loc_members = {}
    source = {}
    for j in range(1, trace.params.m + 1):
        loc_members[j] = loc_indices(trace, j)
        source[j] = {trace.events[w - 1].data: w for w in write_indices(trace, j)}
    return ConstraintGraph(trace, witness, loc_members, source)


def find_cycle(graph: ConstraintGraph) -> Optional[tuple[int, ...]]:
    """Some cycle as a vertex tuple (v1, ..., vl) with vl -> v1, or None.

    Iterative DFS, vertices and successors in ascending order, so the result
    is deterministic.
    """
    size = len(graph)
    WHITE, GREY, BLACK = 0, 1, 2
    color = [WHITE] * (size + 1)
    for root in range(1, size + 1):
        if color[root] != WHITE:
            continue
        path: list[int] = []
        on_path: dict[int, int] = {}
        stack: list[tuple[int, int]] = [(root, 0)]
        while stack:
            u, next_i = stack[-1]
            if next_i == 0:
                color[u] = GREY
                on_path[u] = len(path)
                path.append(u)
            succs = graph.successors(u)
            if next_i < len(succs):
                stack[-1] = (u, next_i + 1)
                v = succs[next_i]
                if color[v] == GREY:
                    return tuple(path[on_path[v] :])
                if color[v] == WHITE:
                    stack.append((v, 0))
            else:
                color[u] = BLACK
                path.pop()
                del on_path[u]
                stack.pop()
    return None


@dataclass(frozen=True)
class NiceCycle:
    """Alternating cycle u1, v1, ..., uk, vk of processor and location edges.

    (u_x, v_x) is a processor edge labelled procs[x-1]; the location edge
    leaving v_x enters u_{x+1} (cyclically) and is labelled locs[x-1].
    Processor labels are pairwise distinct, as are location labels.
    """

    vertices: tuple[int, ...]
    procs: tuple[int, ...]
    locs: tuple[int, ...]
    canonical: bool

    @property
    def k(self) -> int:
        return len(self.procs)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "vertices": list(self.vertices),
            "procs": list(self.procs),
            "locs": list(self.locs),
            "canonical": self.canonical,
        }


def _is_canonical(procs: tuple[int, ...], locs: tuple[int, ...]) -> bool:
    k = len(procs)
    return procs == tuple(range(1, k + 1)) and locs == tuple(
        x % k + 1 for x in range(1, k + 1)
    )


def verify_nice_cycle(graph: ConstraintGraph, cycle: NiceCycle) -> bool:
    k = cycle.k
    verts = cycle.vertices
    if len(verts) != 2 * k or len(set(verts)) != 2 * k:
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
    if cycle.canonical != _is_canonical(cycle.procs, cycle.locs):
        return False
    return True


def find_nice_cycle(
    graph: ConstraintGraph, k: int, canonical_only: bool = False
) -> Optional[NiceCycle]:
    """Search for a k-nice cycle; deterministic, least vertex tuple first.

    Backtracks over the pairs (u_1, v_1), ..., (u_k, v_k) in lexicographic
    vertex order.  locs[] is built shifted by one: the edge checked when
    placing u_x is the one leaving v_{x-1}, and the closing edge supplies
    the label leaving v_k, so the finished tuple has locs[x-1] labelling
    the edge leaving v_x.
    """
    params = graph.trace.params
    if not 1 <= k <= min(params.n, params.m):
        raise ParameterError(f"k {k} outside 1..{min(params.n, params.m)}")
    events = graph.trace.events
    size = len(graph)

    def extend(
        x: int, verts: list[int], procs: list[int], locs: list[int]
    ) -> Optional[NiceCycle]:
        if x > k:
            # close the cycle: location edge from v_k back to u_1
            label = graph.loc_edge_label(verts[-1], verts[0])
            if label is None or label in locs:
                return None
            if canonical_only and label != 1:
                return None
            all_procs, all_locs = tuple(procs), tuple(locs + [label])
            return NiceCycle(
                tuple(verts), all_procs, all_locs, _is_canonical(all_procs, all_locs)
            )
        used = set(verts)
        for u in range(1, size + 1):
            if u in used:
                continue
            i = events[u - 1].proc
            if i in procs or (canonical_only and i != x):
                continue
            if x > 1:
                label = graph.loc_edge_label(verts[-1], u)
                if label is None or label in locs:
                    continue
                if canonical_only and label != x:
                    continue
            for v in range(u + 1, size + 1):
                if v in used or events[v - 1].proc != i:
                    continue
                verts.extend((u, v))
                procs.append(i)
                if x > 1:
                    locs.append(label)
                found = extend(x + 1, verts, procs, locs)
                if found is not None:
                    return found
                del verts[-2:]
                procs.pop()
                if x > 1:
                    locs.pop()
        return None

    return extend(1, [], [], [])


def find_minimal_nice_cycle(graph: ConstraintGraph) -> Optional[NiceCycle]:
    """The nice cycle with the least k, searching k ascending."""
    params = graph.trace.params
    for k in range(1, min(params.n, params.m) + 1):
        cycle = find_nice_cycle(graph, k)
        if cycle is not None:
            return cycle
    return None
