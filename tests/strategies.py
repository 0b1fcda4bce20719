"""Hypothesis strategies shared across the test modules."""
import json
import random
from functools import lru_cache

from hypothesis import strategies as st

from corpus import store_buffer_tail, walk_trace
from scmc import PROTOCOL_NAMES, Params, Run, Trace, make_protocol
from scmc.events import READ, WRITE, InternalEvent, MemoryEvent
from scmc.protocol import DEFAULT_QUEUE_BOUND


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
def _protocol(name: str, n: int, m: int, queue_bound: int = DEFAULT_QUEUE_BOUND):
    protocol = make_protocol(name, n, m, queue_bound)
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


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.integers(),
    st.floats(),
    st.sampled_from(["R", "W", "UPD", "ACKX", ""]),
    st.text(max_size=4),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
_KEYS = st.sampled_from(["op", "proc", "loc", "data", "internal", "params", "n", "m", "v", "x"])


@st.composite
def _records(draw):
    """An event or header object with a random key set and random values."""
    keys = draw(st.lists(_KEYS, max_size=5, unique=True))
    return {key: draw(_JSON_VALUES) for key in keys}


_LINES = st.one_of(
    _records().map(json.dumps),
    _JSON_VALUES.map(json.dumps),
    st.builds(
        lambda n, m, v: json.dumps({"n": n, "m": m, "v": v}),
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
    ),
    st.builds(
        lambda op, p, l, d: json.dumps({"op": op, "proc": p, "loc": l, "data": d}),
        st.sampled_from(["R", "W", "X"]), st.integers(0, 3), st.integers(0, 3), st.integers(-1, 3),
    ),
    st.text(max_size=12),
)


@st.composite
def jsonl_texts(draw):
    """Text shaped like a JSON-lines run: well-formed lines, near misses
    (wrong keys, values of the wrong type, out-of-range fields) and
    arbitrary text, each line possibly cut short or padded, joined by
    any line boundary `str.splitlines` knows."""
    lines = draw(st.lists(_LINES, max_size=6))
    if draw(st.booleans()):
        lines.insert(0, '{"n": 3, "m": 3, "v": 3}')
    out = []
    for line in lines:
        cut = draw(st.integers(0, len(line)))
        if draw(st.integers(0, 7)) == 0:
            line = line[:cut]
        pad = draw(st.sampled_from(["", " ", "\t", "\u00a0", "\ufeff", " x", "}", "{}"]))
        line = pad + line if draw(st.booleans()) else line + pad
        out.append(line)
    seps = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r", "\x0c", " ", "\n\n"]),
                         min_size=len(out), max_size=len(out)))
    return "".join(line + sep for line, sep in zip(out, seps))


@st.composite
def mutated_walk_runs(draw, max_events=40):
    """(protocol name, queue bound, owner vector, run): a seeded walk of
    either Piranha variant at n, m and queue bound 1..3 from a random owner
    vector, with at most one event mutated.  A mutated memory event takes
    data 0..3 and a mutated internal event takes 0 to 3 parameters in 0..4,
    so the run may stop replaying or leave the protocol's ranges.  The
    header's v is the largest data value, at least 1."""
    name = draw(st.sampled_from(PROTOCOL_NAMES))
    n, m, queue_bound = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    owners = tuple(draw(st.lists(st.integers(1, n), min_size=m, max_size=m)))
    protocol, _roots = _protocol(name, n, m, queue_bound)
    rng = random.Random(draw(st.integers(0, 2**32)))
    state, events = protocol.initial_state(owners), []
    for _ in range(draw(st.integers(0, max_events))):
        succ = protocol.successors(state)
        if not succ:
            break
        e, state = rng.choice(succ)
        events.append(e)
    if events and draw(st.booleans()):
        i = draw(st.integers(0, len(events) - 1))
        e = events[i]
        if isinstance(e, MemoryEvent):
            events[i] = e._replace(data=draw(st.integers(0, 3)))
        else:
            params = draw(st.lists(st.integers(0, 4), max_size=3))
            events[i] = InternalEvent(e.label, tuple(params))
    v = max([1] + [e.data for e in events if isinstance(e, MemoryEvent)])
    return name, queue_bound, owners, Run(tuple(events), Params(n, m, v))
