"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` and returns plain scmc objects, so
the same seed always yields the same inputs.  Traces are built either
synthetically or from random walks of the bundled protocol, made
unambiguous through `replay_unambiguous`.
"""
from __future__ import annotations

import random

from scmc.events import READ, WRITE, MemoryEvent, Params, Run, Trace
from scmc.protocol import replay_unambiguous

# A walk stops after this many events per wanted memory event, so a walk
# stuck in internal traffic cannot run forever.
_WALK_STEP_FACTOR = 20


def protocol_walk(rng: random.Random, protocol, memory_events: int) -> Trace:
    """Unambiguous trace of a uniform random walk with `memory_events` events."""
    init = rng.choice(protocol.initial_states())
    state = init
    events = []
    seen = 0
    for _ in range(memory_events * _WALK_STEP_FACTOR):
        if seen == memory_events:
            break
        e, state = rng.choice(protocol.successors(state))
        events.append(e)
        seen += type(e) is MemoryEvent
    run = Run(tuple(events), Params(protocol.n, protocol.m, protocol.v))
    return replay_unambiguous(protocol, run, init)


def synthetic_trace(rng: random.Random, n: int, m: int, length: int) -> Trace:
    """Unambiguous causal trace: fresh write values per location, and reads
    of 0 or of any value written to their location, earlier or later."""
    skeleton = [(rng.randint(1, n), rng.randint(1, m), rng.random() < 0.5) for _ in range(length)]
    written: dict[int, list[int]] = {}
    for _proc, loc, is_write in skeleton:
        if is_write:
            values = written.setdefault(loc, [])
            values.append(len(values) + 1)
    tags = {loc: iter(values) for loc, values in written.items()}
    events = []
    for proc, loc, is_write in skeleton:
        if is_write:
            events.append(MemoryEvent(WRITE, proc, loc, next(tags[loc])))
        else:
            events.append(MemoryEvent(READ, proc, loc, rng.choice([0] + written.get(loc, []))))
    v = max([1] + [len(values) for values in written.values()])
    return Trace(tuple(events), Params(n, m, v))


def store_buffer_tail(rng: random.Random, prefix: Trace) -> Trace | None:
    """Append a store-buffer pattern to an SC trace, or None if it cannot.

    Processor p writes location a, then reads the latest value of b; q
    writes b, then reads the latest value of a.  Both reads miss the new
    writes, so the trace gains a 2-nice cycle.  Reading the latest (nonzero)
    values rather than 0 keeps it free of 1-nice cycles.
    """
    latest: dict[int, int] = {}
    for e in prefix.events:
        if e.op == WRITE:
            latest[e.loc] = e.data
    if len(latest) < 2:
        return None
    a, b = rng.sample(sorted(latest), 2)
    p, q = rng.sample(range(1, prefix.params.n + 1), 2)
    new = {loc: max(e.data for e in prefix.events if e.loc == loc and e.op == WRITE) + 1
           for loc in (a, b)}
    tail = (
        MemoryEvent(WRITE, p, a, new[a]),
        MemoryEvent(READ, p, b, latest[b]),
        MemoryEvent(WRITE, q, b, new[b]),
        MemoryEvent(READ, q, a, latest[a]),
    )
    v = max(prefix.params.v, *new.values())
    return Trace(prefix.events + tail, Params(prefix.params.n, prefix.params.m, v))
