"""A deliberately naive monitor-product search, for differential tests.

It keeps protocol states as objects and monitor states as tuples of phases,
steps them with each automaton's own `step` on every event, and runs a
plain breadth-first search with a parent map: no packed keys, tables,
interning or caches.  It follows model_check's conventions:
roots are the distinct initial states in order, every unblocked product
edge is a transition, the search stops at the first newly reached state
where every check is in err, and max_depth is that state's depth, or else
the largest depth expanded.  Given max_states, it returns inconclusive as
soon as more than max_states states are reached, after the goal test.
"""
from collections import deque

from scmc.events import MemoryEvent
from scmc.monitors import ERR, CheckAutomaton, ConstrainAutomaton


def automata(protocol, k):
    """The constrain automata of every location and the checks 1..k."""
    return (
        tuple(ConstrainAutomaton(j, k) for j in range(1, protocol.m + 1)),
        tuple(CheckAutomaton(i, k) for i in range(1, k + 1)),
    )


def monitor_step(monitors, phases, e):
    """The phases after e, or None where a constraint blocks it."""
    if not isinstance(e, MemoryEvent):
        return phases
    constraints = tuple(a.step(p, e) for a, p in zip(monitors[0], phases[0]))
    if None in constraints:
        return None
    return constraints, tuple(a.step(p, e) for a, p in zip(monitors[1], phases[1]))


def initial_monitors(monitors):
    """The initial phases of the constraints and of the checks."""
    return tuple(tuple(a.initial() for a in family) for family in monitors)


def reference_check(protocol, k, max_states=None):
    """(result, states, transitions, max_depth, run events or None)."""
    monitors = automata(protocol, k)
    start = initial_monitors(monitors)
    parents = {}
    frontier = deque()
    for s in protocol.initial_states():
        if (s, start) not in parents:
            parents[(s, start)] = None
            frontier.append(((s, start), 0))
    transitions = max_depth = 0
    while frontier:
        node, depth = frontier.popleft()
        max_depth = max(max_depth, depth)
        s, phases = node
        for e, s2 in protocol.successors(s):
            phases2 = monitor_step(monitors, phases, e)
            if phases2 is None:
                continue
            transitions += 1
            node2 = (s2, phases2)
            if node2 in parents:
                continue
            parents[node2] = (node, e)
            if all(p == ERR for p in phases2[1]):
                run = []
                while parents[node2] is not None:
                    node2, e = parents[node2]
                    run.append(e)
                return "counterexample", len(parents), transitions, depth + 1, tuple(reversed(run))
            if max_states is not None and len(parents) > max_states:
                return "inconclusive", len(parents), transitions, max_depth, None
            frontier.append((node2, depth + 1))
    return "no_violation", len(parents), transitions, max_depth, None
