"""Trace renamings, permutations and expanded orders, for tests only.

The paper defines data independence by renaming data values and uses
processor and location symmetry in its proofs; scmc's program paths do
that work on runs and states (`replay_unambiguous`, `permute_event`,
`permute_state`).  Apart from `permute_run`, these are the same notions on
traces, without input checks: a renaming is a dict from (location, value)
to value, and a permutation is a tuple whose i-th entry is the image of i.
"""
from scmc import build_constraint_graph
from scmc.errors import ParameterError
from scmc.events import MemoryEvent, Params, Run, Trace
from scmc.protocol import check_permutation, permute_event


def permute_run(protocol, run: Run, kind: str, perm) -> Run:
    """Apply a processor or location permutation to every event of a run.

    The run-level form of the symmetry that `validate_assumptions` checks
    one state and one swap at a time.  kind and perm are checked.
    """
    if kind not in ("proc", "loc"):
        raise ParameterError(f"kind must be 'proc' or 'loc', got {kind!r}")
    perm = check_permutation(perm, protocol.n if kind == "proc" else protocol.m)
    return Run(tuple(permute_event(protocol, e, kind, perm) for e in run.events), run.params)


def positions(trace: Trace, **fields) -> tuple[int, ...]:
    """1-based positions of the events whose named fields have these values."""
    return tuple(
        x for x, e in enumerate(trace.events, 1)
        if all(getattr(e, name) == value for name, value in fields.items())
    )


def rename_data(trace: Trace, renaming: dict) -> Trace:
    """Each event's data through the renaming; data 0 always stays 0."""
    events = tuple(
        MemoryEvent(e.op, e.proc, e.loc, renaming[e.loc, e.data] if e.data else 0)
        for e in trace.events
    )
    v = max([trace.params.v] + [e.data for e in events])
    return Trace(events, Params(trace.params.n, trace.params.m, v))


def permute_procs(trace: Trace, perm: tuple[int, ...]) -> Trace:
    """Processor i's events become processor perm[i-1]'s."""
    return Trace(
        tuple(MemoryEvent(e.op, perm[e.proc - 1], e.loc, e.data) for e in trace.events),
        trace.params,
    )


def permute_locs(trace: Trace, perm: tuple[int, ...]) -> Trace:
    """Location j's events move to location perm[j-1]."""
    return Trace(
        tuple(MemoryEvent(e.op, e.proc, perm[e.loc - 1], e.data) for e in trace.events),
        trace.params,
    )


def expanded_order(trace: Trace, loc: int) -> frozenset[tuple[int, int]]:
    """The pairs (x, y) at `loc` that the constraint graph joins by a location edge.

    That is the expanded witness order: x is a write and y a read of its
    value, or x carries data 0 and y nonzero data, or the write sourcing
    x's value comes before the one sourcing y's.
    """
    graph = build_constraint_graph(trace)
    members = positions(trace, loc=loc)
    return frozenset(
        (x, y) for x in members for y in members if graph.loc_edge_label(x, y) == loc
    )
