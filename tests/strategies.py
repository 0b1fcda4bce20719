"""Hypothesis strategies shared across the test modules."""
import random
from functools import lru_cache

from hypothesis import strategies as st

from corpus import store_buffer_tail, walk_trace
from scmc import Params, Trace, make_protocol
from scmc.events import READ, WRITE, MemoryEvent


@st.composite
def unambiguous_causal_traces(draw, max_n=3, max_m=3, max_len=8):
    """Traces in the analyzable class: per-location writes carry distinct
    nonzero values, reads return 0 or some written value (possibly from a
    later write)."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    length = draw(st.integers(0, max_len))
    skeleton = draw(
        st.lists(
            st.tuples(st.integers(1, n), st.integers(1, m), st.booleans()),
            min_size=length,
            max_size=length,
        )
    )
    next_value = [1] * m
    written: dict[int, list[int]] = {}
    shaped = []
    for proc, loc, is_write in skeleton:
        if is_write:
            d = next_value[loc - 1]
            next_value[loc - 1] += 1
            written.setdefault(loc, []).append(d)
            shaped.append(MemoryEvent(WRITE, proc, loc, d))
        else:
            shaped.append((proc, loc))
    events = []
    for ev in shaped:
        if isinstance(ev, MemoryEvent):
            events.append(ev)
        else:
            proc, loc = ev
            pool = [0] + written.get(loc, [])
            events.append(MemoryEvent(READ, proc, loc, draw(st.sampled_from(pool))))
    v = max(1, max((x - 1 for x in next_value), default=1))
    return Trace(tuple(events), Params(n, m, v))


@st.composite
def arbitrary_traces(draw, max_n=3, max_m=3, max_v=3, max_len=8):
    """Traces with unconstrained data: may be ambiguous or non-causal."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    v = draw(st.integers(1, max_v))
    events = draw(
        st.lists(
            st.builds(
                MemoryEvent,
                st.sampled_from([READ, WRITE]),
                st.integers(1, n),
                st.integers(1, m),
                st.integers(0, v),
            ),
            max_size=max_len,
        )
    )
    return Trace(tuple(events), Params(n, m, v))


def permutations_of(size: int):
    return st.permutations(list(range(1, size + 1)))


@lru_cache(maxsize=None)
def _protocol(name: str, n: int, m: int):
    protocol = make_protocol(name, n, m)
    return protocol, protocol.initial_states()


@st.composite
def protocol_walks(draw, max_events=10):
    """Unambiguous traces of short random walks of both Piranha variants at
    n, m >= 2, about half of them ending in a store-buffer tail."""
    protocol, roots = _protocol(
        draw(st.sampled_from(["piranha", "piranha-buggy"])),
        draw(st.integers(2, 3)),
        draw(st.integers(2, 3)),
    )
    rng = random.Random(draw(st.integers(0, 2**32)))
    trace = walk_trace(rng, protocol, roots, draw(st.integers(1, max_events)), 20 * max_events)
    return store_buffer_tail(rng, trace) if draw(st.booleans()) else trace


def analyzable_traces():
    """Synthetic unambiguous causal traces and protocol walks."""
    return st.one_of(unambiguous_causal_traces(), protocol_walks())
