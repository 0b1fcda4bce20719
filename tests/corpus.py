"""Deterministic corpus of small unambiguous causal traces.

Two sources, both seeded: synthetic traces built directly (reads may see a
value written later in the trace, so non-SC shapes are common), and memory
projections of random protocol walks converted to fresh values.  Every
trace has at most 8 events and n, m at most 3, which keeps the exhaustive
oracle applicable everywhere.
"""
import random
from functools import lru_cache

from scmc import Params, Run, Trace, make_protocol, replay_unambiguous
from scmc.events import READ, WRITE, MemoryEvent

SEED = 20250811
SYNTHETIC_COUNT = 6500
WALK_COUNT = 4000
MAX_LEN = 8

WALK_CONFIGS = (
    ("piranha", 2, 2, 2),
    ("piranha-buggy", 2, 2, 2),
    ("piranha", 2, 1, 2),
    ("piranha-buggy", 3, 2, 1),
    ("piranha", 3, 3, 1),
    ("piranha-buggy", 2, 3, 2),
)


def synthetic_trace(rng: random.Random) -> Trace:
    n = rng.randint(1, 3)
    m = rng.randint(1, 3)
    length = rng.randint(0, MAX_LEN)
    skeleton = [
        (rng.randint(1, n), rng.randint(1, m), rng.random() < 0.45)
        for _ in range(length)
    ]
    next_value = [1] * m
    written: dict[int, list[int]] = {}
    events: list = []
    for proc, loc, is_write in skeleton:
        if is_write:
            d = next_value[loc - 1]
            next_value[loc - 1] += 1
            written.setdefault(loc, []).append(d)
            events.append(MemoryEvent(WRITE, proc, loc, d))
        else:
            events.append((proc, loc))
    filled = []
    for ev in events:
        if isinstance(ev, MemoryEvent):
            filled.append(ev)
        else:
            proc, loc = ev
            filled.append(MemoryEvent(READ, proc, loc, rng.choice([0] + written.get(loc, []))))
    v = max(1, max((x - 1 for x in next_value), default=1))
    return Trace(tuple(filled), Params(n, m, v))


def walk_trace(
    rng: random.Random, protocol, roots, memory_events: int = MAX_LEN, max_steps: int = 40
) -> Trace:
    """Unambiguous trace of a uniform random walk of protocol from one of
    roots, stopping after memory_events memory events or max_steps steps."""
    root = roots[rng.randrange(len(roots))]
    state = root
    events = []
    memory = 0
    for _ in range(max_steps):
        succ = protocol.successors(state)
        if not succ:
            break
        e, state = succ[rng.randrange(len(succ))]
        events.append(e)
        if isinstance(e, MemoryEvent):
            memory += 1
            if memory >= memory_events:
                break
    run = Run(tuple(events), Params(protocol.n, protocol.m, protocol.v))
    return replay_unambiguous(protocol, run, root)


def store_buffer_tail(rng: random.Random, trace: Trace) -> Trace:
    """trace followed by a store-buffer pattern, which closes a 2-nice cycle.

    Processor p writes location a, then reads the latest value of b (0 if
    none); q writes b, then reads the latest value of a.  Both reads miss
    the new writes.
    """
    params = trace.params
    # write values count up from 1 per location in replayed traces
    latest = {e.loc: e.data for e in trace.events if e.op == WRITE}
    a, b = rng.sample(range(1, params.m + 1), 2)
    p, q = rng.sample(range(1, params.n + 1), 2)
    fresh_a, fresh_b = latest.get(a, 0) + 1, latest.get(b, 0) + 1
    tail = (
        MemoryEvent(WRITE, p, a, fresh_a),
        MemoryEvent(READ, p, b, latest.get(b, 0)),
        MemoryEvent(WRITE, q, b, fresh_b),
        MemoryEvent(READ, q, a, latest.get(a, 0)),
    )
    v = max(params.v, fresh_a, fresh_b)
    return Trace(trace.events + tail, Params(params.n, params.m, v))


@lru_cache(maxsize=1)
def build_corpus() -> tuple[tuple[Trace, ...], tuple[Trace, ...]]:
    """(synthetic traces, protocol-walk traces), deterministic across runs."""
    rng = random.Random(SEED)
    synthetic = tuple(synthetic_trace(rng) for _ in range(SYNTHETIC_COUNT))
    protocols = [
        (make_protocol(name, n, m, q), None) for name, n, m, q in WALK_CONFIGS
    ]
    protocols = [(p, p.initial_states()) for p, _ in protocols]
    walks = []
    for idx in range(WALK_COUNT):
        protocol, roots = protocols[idx % len(protocols)]
        walks.append(walk_trace(rng, protocol, roots))
    return synthetic, tuple(walks)


def all_traces() -> tuple[Trace, ...]:
    synthetic, walks = build_corpus()
    return synthetic + walks


def serial_trace(pairs: int) -> Trace:
    """One processor writing 1, 2, ... to location 1, reading each back."""
    events = []
    for d in range(1, pairs + 1):
        events += (MemoryEvent(WRITE, 1, 1, d), MemoryEvent(READ, 1, 1, d))
    return Trace(tuple(events), Params(1, 1, pairs))


def store_buffer_ring(n: int) -> Trace:
    """W(i,i,1) for each processor i, then R(i,i%n+1,0) for each i.

    2n events in one strongly connected component whose least nice cycle
    has k = n: (1, n+1, 2, n+2, ..., n, 2n).
    """
    writes = [MemoryEvent(WRITE, i, i, 1) for i in range(1, n + 1)]
    reads = [MemoryEvent(READ, i, i % n + 1, 0) for i in range(1, n + 1)]
    return Trace(tuple(writes + reads), Params(n, n, 1))
