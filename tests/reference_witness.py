"""A deliberately naive constraint graph, the reference for scmc.witness.

Every edge query applies the three rules of the expanded write order to
the two events directly, the nice-cycle search tries every vertex at every
step, and the cycle test peels off vertices without predecessors.  Nothing
is ranked, reduced or indexed, so it is slow but can be checked by eye
against the definitions.
"""
from scmc.events import READ, WRITE, Trace
from scmc.witness import NiceCycle


class NaiveGraph:
    def __init__(self, trace: Trace):
        self.trace = trace
        # per location, each written value to the position of its write
        self.source = {
            j: {e.data: w for w, e in enumerate(trace.events, 1) if e.loc == j and e.op == WRITE}
            for j in range(1, trace.params.m + 1)
        }

    def proc_edge_label(self, u, v):
        eu, ev = self.trace.events[u - 1], self.trace.events[v - 1]
        return eu.proc if u < v and eu.proc == ev.proc else None

    def loc_pair(self, x, y):
        """(x, y) in the expanded order of their (common) location."""
        ex, ey = self.trace.events[x - 1], self.trace.events[y - 1]
        if ex.data == ey.data and ex.op == WRITE and ey.op == READ:
            return True
        if ex.data == 0 and ey.data != 0:
            return True
        if ex.data != 0 and ey.data != 0:
            src = self.source[ex.loc]
            a, b = src.get(ex.data), src.get(ey.data)
            if a is not None and b is not None:
                return a < b  # the simple witness: writes in trace order
        return False

    def loc_edge_label(self, u, v):
        eu, ev = self.trace.events[u - 1], self.trace.events[v - 1]
        return eu.loc if eu.loc == ev.loc and self.loc_pair(u, v) else None

    def has_cycle(self):
        size = len(self.trace)
        edges = {
            (u, v)
            for u in range(1, size + 1)
            for v in range(1, size + 1)
            if self.proc_edge_label(u, v) is not None or self.loc_edge_label(u, v) is not None
        }
        left = set(range(1, size + 1))
        while True:
            sources = {v for v in left if not any((u, v) in edges for u in left)}
            if not sources:
                return bool(left)
            left -= sources

    def reachable(self):
        """Pairs (u, v) joined by a path of one or more edges, by closing
        the edge set transitively through each vertex in turn."""
        size = len(self.trace)
        vertices = range(1, size + 1)
        reach = {
            (u, v)
            for u in vertices
            for v in vertices
            if self.proc_edge_label(u, v) is not None or self.loc_edge_label(u, v) is not None
        }
        for w in vertices:
            into = [u for u in vertices if (u, w) in reach]
            out = [v for v in vertices if (w, v) in reach]
            reach.update((u, v) for u in into for v in out)
        return reach

    def find_nice_cycle(self, k):
        """The least vertex tuple u1, v1, ..., uk, vk forming a k-nice cycle."""
        size = len(self.trace)

        def extend(verts, procs, locs):
            if len(procs) == k:
                label = self.loc_edge_label(verts[-1], verts[0])
                if label is None or label in locs:
                    return None
                return NiceCycle(tuple(verts), procs, locs + (label,))
            for u in range(1, size + 1):
                if u in verts:
                    continue
                new_locs = locs
                if verts:
                    label = self.loc_edge_label(verts[-1], u)
                    if label is None or label in locs:
                        continue
                    new_locs = locs + (label,)
                for v in range(1, size + 1):
                    proc = self.proc_edge_label(u, v)
                    if v in verts or proc is None or proc in procs:
                        continue
                    found = extend(verts + [u, v], procs + (proc,), new_locs)
                    if found is not None:
                        return found
            return None

        return extend([], (), ())

    def find_minimal_nice_cycle(self):
        params = self.trace.params
        for k in range(1, min(params.n, params.m) + 1):
            cycle = self.find_nice_cycle(k)
            if cycle is not None:
                return cycle
        return None


def is_cycle_of(graph, cycle) -> bool:
    """Whether cycle is a cycle of distinct vertices whose every step,
    the closing one included, is a processor or location edge of graph."""
    if len(set(cycle)) != len(cycle) or len(cycle) < 2:
        return False
    return all(
        graph.proc_edge_label(u, v) is not None or graph.loc_edge_label(u, v) is not None
        for u, v in zip(cycle, cycle[1:] + cycle[:1])
    )
