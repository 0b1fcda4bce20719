import dataclasses
import gc
import itertools
import tracemalloc
import weakref

import pytest

from scmc import (
    CheckAutomaton,
    ConstrainAutomaton,
    InternalEvent,
    MemoryEvent,
    Params,
    ParameterError,
    PreconditionError,
    Run,
    accepts,
    build_constraint_graph,
    check_sc_oracle,
    explore_protocol,
    extract_cycle,
    make_protocol,
    model_check,
    project_trace,
    replay,
    validate_assumptions,
    verify_nice_cycle,
)
from scmc import checker
from scmc.checker import COUNTEREXAMPLE, INCONCLUSIVE, NO_VIOLATION
from scmc.errors import DataIndependenceError
from scmc.events import READ
from scmc.protocol import PiranhaProtocol, permute_event
from scmc.witness import ConstraintGraph
from fixtures import (
    CopyBlocksWriteProtocol,
    FullQueueStallsProtocol,
    HallucinatingReadProtocol,
    OwnerBlocksGrantProtocol,
    PartialOwnersProtocol,
    PrivilegedWriterProtocol,
    SerialMemory,
)
from reference_checker import automata, initial_monitors, monitor_step, reference_check
from reference_trace import permute_run
from scmc.monitors import ERR

W = lambda p, l, d: MemoryEvent("W", p, l, d)
R = lambda p, l, d: MemoryEvent("R", p, l, d)
ACKX = lambda i, j: InternalEvent("ACKX", (i, j))
ACKS = lambda i, j: InternalEvent("ACKS", (i, j))
UPD = lambda i: InternalEvent("UPD", (i,))

RUN12 = Run(
    (
        ACKX(2, 2), UPD(2), ACKS(1, 2), ACKX(2, 2), ACKX(1, 1), UPD(1), UPD(1),
        W(1, 1, 1), R(1, 2, 0), UPD(2), W(2, 2, 1), R(2, 1, 0),
    ),
    Params(2, 2, 1),
)


def runs_across_search(protocol, depth, count):
    """(initial state, run) pairs for about `count` protocol states spread
    evenly over a breadth-first search of `depth` levels; each run is the
    first path the search found to its state."""
    paths = {s: (s, ()) for s in protocol.initial_states()}
    frontier = list(paths)
    for _ in range(depth):
        reached = []
        for state in frontier:
            root, events = paths[state]
            for e, s2 in protocol.successors(state):
                if s2 not in paths:
                    paths[s2] = (root, events + (e,))
                    reached.append(s2)
        frontier = reached
    params = Params(protocol.n, protocol.m, protocol.v)
    found = list(paths.values())
    return [(root, Run(events, params)) for root, events in found[:: len(found) // count]]


def assert_valid_counterexample(protocol, verdict):
    assert verdict.result == COUNTEREXAMPLE
    k = verdict.k
    replay(protocol, verdict.run, verdict.initial_state)
    proj = project_trace(verdict.run)
    for j in range(1, protocol.m + 1):
        assert accepts(proj, ConstrainAutomaton(j, k))
    for i in range(1, k + 1):
        assert accepts(proj, CheckAutomaton(i, k))
    cycle = verdict.cycle
    assert cycle.canonical and cycle.k == k
    graph = build_constraint_graph(verdict.trace)
    assert verify_nice_cycle(graph, cycle)
    if len(verdict.trace) <= 10:
        assert check_sc_oracle(verdict.trace) is None


class TestModelCheck:
    # The tests below that expect a goal pass max_states of about twice the
    # states they need, so a search that misses the goal fails fast instead
    # of filling memory.
    def test_buggy_k2_counterexample(self):
        p = make_protocol("piranha-buggy", 2, 2, 3)
        v = model_check(p, 2, max_states=220_000)  # 109,686 needed
        assert_valid_counterexample(p, v)
        # BFS with the fixed event order lands on the shortest product run
        assert v.max_depth == 12
        assert v.run == Run(RUN12.events, Params(2, 2, 2))
        assert p.view(v.initial_state).owner == v.initial_owners == (1, 1)
        assert v.cycle.vertices == (1, 2, 3, 4)
        assert v.trace.events == (W(1, 1, 1), R(1, 2, 0), W(2, 2, 1), R(2, 1, 0))

    def test_correct_no_violation(self):
        p = make_protocol("piranha", 2, 2, 1)
        for k in (1, 2):
            v = model_check(p, k)
            assert v.result == NO_VIOLATION
            assert v.states > 0 and v.transitions > 0

    def test_state_count_sanity(self):
        p = make_protocol("piranha", 2, 2, 1)
        protocol_states, _ = explore_protocol(p)
        for k in (1, 2):
            v = model_check(p, k)
            assert v.states <= protocol_states * (2 ** k) * (3 ** k)

    def test_deterministic(self):
        p = make_protocol("piranha-buggy", 2, 2, 2)
        # 52,182 states needed
        assert model_check(p, 2, max_states=105_000) == model_check(p, 2, max_states=105_000)

    def test_max_states_inconclusive(self):
        p = make_protocol("piranha-buggy", 2, 2, 3)
        v = model_check(p, 2, max_states=100)
        assert v.result == INCONCLUSIVE
        assert (v.states, v.transitions, v.max_depth) == (101, 279, 2)
        assert v.run is None and v.cycle is None

    @pytest.mark.parametrize("order", ["bfs", "dfs"])
    @pytest.mark.parametrize(
        "n, m, k, counts",
        [
            (2, 2, 1, (3, 19, 2)),
            (2, 2, 2, (31, 198, 6)),
            (3, 2, 1, (3, 25, 2)),
            (3, 2, 2, (31, 260, 6)),
        ],
    )
    def test_generic_state_encoding(self, n, m, k, counts, order):
        # the fixture has plain tuple states, which the search keys on directly
        p = PrivilegedWriterProtocol(n, m)
        v = model_check(p, k)
        assert v.result == NO_VIOLATION
        assert (v.states, v.transitions, v.max_depth) == counts
        if order == "dfs":
            # a depth-first walk of the same product reaches the same states
            # and edges, each state at no smaller depth
            result, states, transitions, depth = depth_first_check(p, k)
            assert (result, states, transitions) == (NO_VIOLATION, v.states, v.transitions)
            assert depth >= v.max_depth

    def test_parameter_validation(self):
        p = make_protocol("piranha", 2, 2, 1)
        with pytest.raises(ParameterError):
            model_check(p, 0)
        with pytest.raises(ParameterError):
            model_check(p, 3)
        with pytest.raises(TypeError):
            model_check(p, 1, search="dfs")  # breadth-first is the only order
        with pytest.raises(ParameterError):
            model_check(p, 1, max_states=0)
        wrong_v = PrivilegedWriterProtocol(2, 2, v=1)
        with pytest.raises(ParameterError):
            model_check(wrong_v, 1)

    @pytest.mark.parametrize(
        "k, max_states", [(True, 100), (1.0, 100), ("1", 100), (1, 2.5), (1, True)]
    )
    def test_k_and_max_states_must_be_ints(self, k, max_states):
        # a bool k would search and report "k": true
        p = make_protocol("piranha", 2, 2, 1)
        with pytest.raises(ParameterError):
            model_check(p, k, max_states=max_states)

    def test_verdict_json_shape(self):
        p = make_protocol("piranha-buggy", 2, 2, 2)
        d = model_check(p, 2).to_json()
        assert d["k"] == 2 and d["result"] == "counterexample"
        assert d["initial_owners"] == [1, 1]
        assert isinstance(d["run"], list) and isinstance(d["cycle"], dict)
        assert d["cycle"]["canonical"] is True
        assert [e["op"] for e in d["unambiguous_trace"]] == ["W", "R", "W", "R"]


# (n, m, k) of the differential tests below
SMALL = [(1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)]
BOUNDED = [(3, 3, 1), (3, 3, 2), (3, 3, 3), (2, 3, 1), (2, 3, 2), (3, 2, 1), (3, 2, 2)]
# a depth-first walk of piranha-buggy 2x2 Q2 k=2 reaches its goal only after
# 1,440,304 states; every other SMALL configuration ends below 62,000
DFS_CAP = 70_000


def depth_first_check(protocol, k, max_states=None):
    """(result, states, transitions, depth) of a depth-first walk of the product.

    A second exploration order for model_check's breadth-first one, stepping
    the monitors as reference_check does.  It stops at the first newly
    reached goal state, whose depth it returns, or as soon as more than
    max_states states are reached; otherwise depth is the largest depth
    expanded.  A state's depth is the depth at which it was first reached.
    """
    monitors = automata(protocol, k)
    start = initial_monitors(monitors)
    seen = dict.fromkeys((s, start) for s in protocol.initial_states())
    stack = [(node, 0) for node in seen]
    transitions = max_depth = 0
    while stack:
        (s, phases), depth = stack.pop()
        max_depth = max(max_depth, depth)
        for e, s2 in protocol.successors(s):
            phases2 = monitor_step(monitors, phases, e)
            if phases2 is None:
                continue
            transitions += 1
            node2 = (s2, phases2)
            if node2 in seen:
                continue
            seen[node2] = None
            if all(p == ERR for p in phases2[1]):
                return COUNTEREXAMPLE, len(seen), transitions, depth + 1
            if max_states is not None and len(seen) > max_states:
                return INCONCLUSIVE, len(seen), transitions, max_depth
            stack.append((node2, depth + 1))
    return NO_VIOLATION, len(seen), transitions, max_depth


class TestAgainstReference:
    # every configuration with n, m <= 2 and queue bound <= 2, both variants
    # and every k, against the naive search of reference_checker.py
    @pytest.mark.parametrize("name", ["piranha", "piranha-buggy"])
    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("n, m, k", SMALL)
    def test_same_verdict(self, name, n, m, q, k):
        p = make_protocol(name, n, m, q)
        v = model_check(p, k)
        run = None if v.run is None else v.run.events
        assert (v.result, v.states, v.transitions, v.max_depth, run) == reference_check(p, k)

    # no search order changes a verdict: the same configurations against a
    # depth-first walk of the product, cut at DFS_CAP states.  Where that walk
    # closes, both reach the same states and edges; breadth-first depths, and
    # so its counterexamples, are never longer.  Breadth-first decides every
    # configuration within DFS_CAP, even the one the depth-first walk does not.
    @pytest.mark.parametrize("name", ["piranha", "piranha-buggy"])
    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("n, m, k", SMALL)
    def test_same_dfs_verdict(self, name, n, m, q, k):
        p = make_protocol(name, n, m, q)
        v = model_check(p, k, max_states=DFS_CAP)
        result, states, transitions, depth = depth_first_check(p, k, max_states=DFS_CAP)
        assert v.result == (COUNTEREXAMPLE if result == INCONCLUSIVE else result)
        if result == NO_VIOLATION:
            assert (v.states, v.transitions) == (states, transitions)
        if result != INCONCLUSIVE:
            assert v.max_depth <= depth
        if v.result == COUNTEREXAMPLE:
            assert_valid_counterexample(p, v)

    # k = 3 (216 monitor vectors) and locations beyond k, cut at 5000 states
    @pytest.mark.parametrize("name", ["piranha", "piranha-buggy"])
    @pytest.mark.parametrize("n, m, k", BOUNDED)
    def test_same_bounded_verdict(self, name, n, m, k):
        p = make_protocol(name, n, m, 1)
        v = model_check(p, k, max_states=5000)
        run = None if v.run is None else v.run.events
        expected = reference_check(p, k, max_states=5000)
        assert (v.result, v.states, v.transitions, v.max_depth, run) == expected

    # a sequentially consistent memory: both searches close the product
    @pytest.mark.parametrize("n, m, k", SMALL)
    def test_serial_memory_same_verdict(self, n, m, k):
        p = SerialMemory(n, m)
        v = model_check(p, k)
        assert (v.result, v.states, v.transitions, v.max_depth, v.run) == reference_check(p, k)

    # a one-state protocol whose reads may return 1 without a write: the
    # product is the monitor vectors alone, so even k = 3 reaches the goal
    @pytest.mark.parametrize("n, m, k", [(2, 3, 2), (3, 3, 2), (3, 3, 3)])
    def test_same_goal_on_monitor_vectors(self, monkeypatch, n, m, k):
        # the run is not data independent, so the cycle cannot be extracted
        monkeypatch.setattr(checker, "extract_cycle", lambda *args: (None, None))
        p = HallucinatingReadProtocol(n, m)
        v = model_check(p, k)
        assert (v.result, v.states, v.transitions, v.max_depth, v.run.events) == reference_check(p, k)


# A hand-built graph for the search engine: nodes are letters, the event of
# an edge names its two ends.  The search runs on int ids for the letters.
GRAPH = {
    "a": [("ab", "b"), ("ac", "c")],
    "b": [("bd", "d"), ("bc", "c"), ("be", "e")],
    "c": [("ca", "a"), ("cf", "f")],
    "d": [("dg", "g")],
    "e": [("eg", "g"), ("eh", "h")],
    "f": [("fh", "h")],
    "g": [("ga", "a")],
    "h": [],
}
DENSE = {x: i for i, x in enumerate("abcdefgh")}
# ids that keep crossing the bitmap's end: discovered in the order acbfdehg,
# c, d and g lie more than twice its length out and extend it to their
# byte, and b, f, e and h less than that and double it; in the order
# abcdefgh, b, d and g extend it and e doubles it.  The goal cases double
# every key, which keeps them crossing it
GROWING = {
    "a": 0,
    "b": 9 * 8 + 1,
    "c": 5 * 8 + 7,
    "d": 100 * 8 + 2,
    "e": 150 * 8 + 6,
    "f": 20 * 8 + 4,
    "g": 5000 * 8 + 5,
    "h": 300 * 8 + 3,
}

# (roots, options, expected); each expected value is (states, transitions,
# max_depth, (goal node, depth), (root, events to the goal), exceeded, nodes
# in discovery order)
SEARCH_CASES = [
    # duplicate roots are reached once
    ("aac", {}, (8, 12, 3, None, None, False, "acbfdehg")),
    # h is first reached from f, the last node of level 1
    ("aca", {"goal": "h"}, (7, 8, 1, ("h", 2), ("c", ("cf", "fh")), False, "acbfdeh")),
    # a root is never a newly reached node, so never a goal
    ("a", {"goal": "a"}, (8, 12, 3, None, None, False, "abcdefgh")),
    ("ac", {"depth_limit": 0}, (2, 0, 0, None, None, False, "ac")),
    ("ac", {"depth_limit": 1}, (4, 4, 1, None, None, False, "acbf")),
    ("ac", {"depth_limit": 2}, (7, 8, 2, None, None, False, "acbfdeh")),
    ("ac", {"max_states": 4}, (5, 5, 1, None, None, True, "acbfd")),
    ("ac", {"max_states": 7}, (8, 9, 2, None, None, True, "acbfdehg")),
    ("ac", {"max_states": 8}, (8, 12, 3, None, None, False, "acbfdehg")),
    ("", {}, (0, 0, 0, None, None, False, "")),
    # the search stops at the goal's edge, before the rest of its expansion
    ("a", {"goal": "d"}, (4, 3, 1, ("d", 2), ("a", ("ab", "bd")), False, "abcd")),
    ("a", {"goal": "b"}, (2, 1, 0, ("b", 1), ("a", ("ab",)), False, "ab")),
]


def flat_successors(ids, size=1, goal=None):
    """GRAPH as _search's flat (edge, base2, edge, base2, ...) tuples, keyed
    by base: node x is the key size * ids[x] + mid, where mid is 1 for the
    goal node and 0 for the others, so each edge maps every mid to its
    target's mid."""
    def edge(e, y):
        return (int(y == goal),) * size + (e,)

    return {
        size * ids[x]: tuple(v for e, y in edges for v in (edge(e, y), size * ids[y]))
        for x, edges in GRAPH.items()
    }


def search_graph(ids, roots, options):
    """checker._search on GRAPH with node x numbered ids[x], its result
    read back in letters.  A goal node is told apart by its mid, so with a
    goal there are two mids and the keys are 2 * ids[x] + mid."""
    options = dict(options)
    goal = options.pop("goal", None)
    size = 1 if goal is None else 2
    key = {x: size * i + (x == goal) for x, i in ids.items()}
    node = {k: x for x, k in key.items()}
    found = checker._search(
        [key[x] for x in roots],
        flat_successors(ids, size, goal),
        None,
        size,
        options.pop("max_states", None),
        goal={1},
        **options,
    )
    goal_node = path = None
    if found.goal is not None:
        i, depth = found.goal
        goal_node = (node[found.keys[i]], depth)
        root, events = checker._path(found, i)
        path = (node[root], events)
    result = (len(found.keys), found.transitions, found.max_depth, goal_node, path)
    return result + (found.exceeded, "".join(node[key] for key in found.keys))


class TestSerialMemory:
    """A known answer: a memory whose every run is serial has no violation."""

    @pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_no_violation_at_every_k(self, n, m):
        for k in range(1, min(n, m) + 1):
            assert model_check(SerialMemory(n, m), k).result == NO_VIOLATION

    def test_assumptions_hold(self):
        assert validate_assumptions(SerialMemory(2, 2), depth=6).ok


class TestSearchEngine:
    """checker._search on GRAPH; the expected values were recorded from a
    search engine whose visited set was a Python set."""

    @pytest.mark.parametrize("roots, options, expected", SEARCH_CASES)
    def test_search(self, roots, options, expected):
        assert search_graph(DENSE, roots, options) == expected

    # the same cases with ids that keep crossing the bitmap's end
    @pytest.mark.parametrize("roots, options, expected", SEARCH_CASES)
    def test_far_keys(self, roots, options, expected):
        assert search_graph(GROWING, roots, options) == expected

    def test_bitmap_size(self):
        # the memory held while the search runs, measured at every fill,
        # is the bitmap, at most twice the bytes its largest key needs, and
        # the arrays of 8 keys and the search's frames, which fit in the
        # allowance; the zeroed block a growth appends is freed by then.
        # The ids, met in the order abcdefgh, grow by half at each node, so
        # the bitmap doubles 5 times and ends 1.87 times what h needs
        ids = {x: 8 * (50_000 * 3**i // 2**i) for i, x in enumerate("abcdefgh")}
        successors = flat_successors(ids)
        held = []

        def fill(key):
            held.append(tracemalloc.get_traced_memory()[0])
            return successors[key]

        tracemalloc.start()
        try:
            found = checker._search([ids["a"]], {}, fill, 1, None)
        finally:
            tracemalloc.stop()
        assert len(found.keys) == len(GRAPH)
        largest = max(ids.values())
        assert largest // 8 < max(held) <= 2 * (largest // 8 + 1) + 4096


class TestSearchMemory:
    def test_bytes_per_state(self):
        # what model_check keeps per product state is array entries, bitmap
        # bits and shares of per-protocol-state objects; an int or tuple per
        # state, as in a set of keys, would cost 60 B or more.  It reads
        # about 192 B on Python 3.10 and 195 B on 3.11 and 3.12; keying the
        # successor cache by a fresh int per entry instead of the memo's own
        # reads about 206 B
        p = make_protocol("piranha-buggy", 2, 2, 3)
        tracemalloc.start()
        try:
            v = model_check(p, 2, max_states=220_000)  # 109,686 needed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.states == 109_686
        assert peak <= 205 * v.states


class TestNumbering:
    """model_check numbers only the successors some monitor vector allows.
    The constraint of a location above k admits writes of 0 alone, so a
    write of 1 or 2 there gets no number and no successor-cache entry."""

    @pytest.mark.parametrize(
        "name, n, m, q, k, numbered",
        [
            ("piranha", 2, 3, 1, 1, 5_280),  # 11,568 with blocked writes numbered
            ("piranha-buggy", 2, 2, 1, 1, 2_767),  # 4,473 with them
            ("piranha", 2, 2, 3, 2, 10_278),  # no location above k
        ],
    )
    def test_numbered_protocol_states(self, monkeypatch, name, n, m, q, k, numbered):
        numbering = checker._numbering
        lists = []

        def capturing(scale=1):
            values, memo = numbering(scale)
            lists.append(values)
            return values, memo

        monkeypatch.setattr(checker, "_numbering", capturing)
        model_check(make_protocol(name, n, m, q), k)
        assert [len(values) for values in lists] == [numbered]

    def test_blocked_writes_hold_no_memory(self):
        # 1.8 MB at peak; numbering and caching the blocked writes' states
        # as well took 3.1 MB (Python 3.11)
        p = make_protocol("piranha", 2, 3, 1)
        tracemalloc.start()
        try:
            v = model_check(p, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (v.result, v.states) == (NO_VIOLATION, 6_354)
        assert peak <= 2_300_000


class TestProtocolCalls:
    """model_check calls the protocol exactly as often as before the
    product-key and kernel rewrite; the benchmark gates these counts."""

    @pytest.mark.parametrize(
        "name, calls",
        [
            # (successors, encode_state, decode_state, successor edges)
            ("piranha", (8154, 49072, 8154, 49068)),
            ("piranha-buggy", (38537, 287834, 38535, 287854)),
        ],
    )
    def test_call_counts(self, monkeypatch, name, calls):
        counts = dict.fromkeys(("successors", "encode_state", "decode_state", "edges"), 0)
        reads = []

        def counting(attr):
            original = getattr(PiranhaProtocol, attr)

            def wrapper(self, arg):
                counts[attr] += 1
                result = original(self, arg)
                if attr == "successors":
                    counts["edges"] += len(result)
                    reads.extend(s is arg for e, s in result if getattr(e, "op", None) == READ)
                return result

            monkeypatch.setattr(PiranhaProtocol, attr, wrapper)

        for attr in ("successors", "encode_state", "decode_state"):
            counting(attr)
        model_check(make_protocol(name, 2, 2, 3), 2)
        assert tuple(counts.values()) == calls
        # every read is a protocol self-loop on the very state object
        assert reads and all(reads)


class TestGcPause:
    def test_collector_resumed(self):
        assert gc.isenabled()
        model_check(make_protocol("piranha", 2, 1, 1), 1)
        assert gc.isenabled()

    def test_collector_resumed_after_error(self):
        # the fixture's reads return values nothing wrote, so the replay of
        # its counterexample fails inside model_check
        assert gc.isenabled()
        with pytest.raises(DataIndependenceError):
            model_check(HallucinatingReadProtocol(2, 2), 1)
        assert gc.isenabled()

    def test_protocol_freed_without_collector(self):
        # nothing a protocol keeps, its grant table included, refers back
        # to it, so it never waits for the collector that model_check pauses
        gc.disable()
        try:
            p = make_protocol("piranha-buggy", 2, 2, 1)
            s = p.initial_states()[0]
            for e, _s2 in p.successors(s):
                p.step(s, e)
            assert model_check(p, 1).result == COUNTEREXAMPLE
            ref = weakref.ref(p)
            del p
            assert ref() is None
        finally:
            gc.enable()

    def test_collector_left_off(self):
        gc.disable()
        try:
            model_check(make_protocol("piranha", 2, 1, 1), 1)
            explore_protocol(make_protocol("piranha", 2, 1, 1))
            validate_assumptions(make_protocol("piranha", 2, 1, 1), depth=2)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestExtractCycle:
    def test_known_violating_run(self):
        p = make_protocol("piranha-buggy", 2, 2, 3)
        trace, cycle = extract_cycle(p, RUN12, p.initial_state((1, 1)), 2)
        assert trace.events == (W(1, 1, 1), R(1, 2, 0), W(2, 2, 1), R(2, 1, 0))
        assert cycle.vertices == (1, 2, 3, 4)
        assert cycle.procs == (1, 2) and cycle.locs == (2, 1)
        assert cycle.canonical

    def test_builds_no_lazy_index(self, monkeypatch):
        # verifying a cycle only queries edge labels
        graphs = []

        def build(trace):
            graphs.append(build_constraint_graph(trace))
            return graphs[-1]

        monkeypatch.setattr(checker, "build_constraint_graph", build)
        p = make_protocol("piranha-buggy", 2, 2, 3)
        extract_cycle(p, RUN12, p.initial_state((1, 1)), 2)
        (graph,) = graphs
        assert set(vars(graph)) == {f.name for f in dataclasses.fields(ConstraintGraph)}

    def test_k1_requires_acceptance(self):
        # the location-2 constraint at k=1 blocks the nonzero write
        p = make_protocol("piranha-buggy", 2, 2, 3)
        with pytest.raises(PreconditionError):
            extract_cycle(p, RUN12, p.initial_state((1, 1)), 1)

    def test_unaccepted_run_rejected(self):
        p = make_protocol("piranha", 2, 1, 3)
        run8 = Run(
            (
                ACKX(1, 1), UPD(1), W(1, 1, 1), R(2, 1, 0), UPD(2), ACKS(2, 1),
                UPD(2), R(2, 1, 1),
            ),
            Params(2, 1, 1),
        )
        with pytest.raises(PreconditionError):
            extract_cycle(p, run8, p.initial_state((1,)), 1)


class TestExploreProtocol:
    def test_counts(self):
        for name, q, counts in (
            ("piranha", 1, (5382, 37944)),
            ("piranha", 2, (11898, 75852)),
            ("piranha-buggy", 1, (35370, 312480)),
        ):
            assert explore_protocol(make_protocol(name, 2, 2, q)) == counts

    def test_cap(self):
        p = make_protocol("piranha", 2, 2, 1)
        with pytest.raises(ParameterError):
            explore_protocol(p, max_states=10)

    @pytest.mark.parametrize("cap", [0, -5, 2.5, 10.0, True])
    def test_bad_cap_rejected_before_the_search(self, cap):
        p = make_protocol("piranha", 2, 2, 1)

        def successors(state):
            pytest.fail("searched with a bad max_states")

        p.successors = successors
        with pytest.raises(ParameterError):
            explore_protocol(p, max_states=cap)


class TestValidateAssumptions:
    def test_piranha_clean(self):
        p = make_protocol("piranha", 2, 2, 2)
        report = validate_assumptions(p, depth=4)
        assert report.ok
        assert report.nodes > 0 and report.edges > 0
        assert report.symmetry_checks > 0
        for name, depth, nodes, edges, checks in (
            ("piranha", 6, 2142, 7652, 1436),
            ("piranha-buggy", 6, 3178, 9604, 1932),
            ("piranha", 10, 19302, 86680, 9084),
        ):
            report = validate_assumptions(make_protocol(name, 2, 2, 3), depth=depth)
            assert report.ok
            assert (report.nodes, report.edges) == (nodes, edges)
            # two swaps, one of processors and one of locations, on each of
            # the 4 initial states and each distinct protocol state expanded
            assert report.symmetry_checks == checks

    def test_depth_zero_empty(self):
        p = make_protocol("piranha", 2, 2, 2)
        report = validate_assumptions(p, depth=0)
        assert report.ok
        assert report.edges == 0
        assert report.nodes == len(p.initial_states())

    def test_asymmetric_fixture_flagged(self):
        fixture = PrivilegedWriterProtocol(n=2, m=2, v=2)
        report = validate_assumptions(fixture, depth=3)
        assert len(report.symmetry_violations) >= 1
        assert all(v.kind == "proc" for v in report.symmetry_violations)
        assert not report.causality_violations
        report = validate_assumptions(fixture, depth=4)
        assert (report.nodes, report.edges) == (55, 350)
        # two swaps on the one initial state and on each of the 9 memory
        # states; the processor swap fails on each state that has a write
        assert report.symmetry_checks == 20
        assert len(report.symmetry_violations) == 9
        assert {v.perm for v in report.symmetry_violations} == {(2, 1)}

    def test_acausal_fixture_flagged(self):
        fixture = HallucinatingReadProtocol()
        report = validate_assumptions(fixture, depth=2)
        assert len(report.causality_violations) >= 1
        assert not report.symmetry_violations
        report = validate_assumptions(fixture, depth=3)
        assert (report.nodes, report.edges) == (1, 2)
        assert len(report.causality_violations) == 1
        violation = report.causality_violations[0]
        assert violation.run.events == (R(1, 1, 1),)
        assert violation.initial_state == ()
        replay(fixture, violation.run, violation.initial_state)
        assert violation.index == 1
        assert violation.to_json()["index"] == 1

    def test_report_json(self):
        fixture = PrivilegedWriterProtocol()
        d = validate_assumptions(fixture, depth=2).to_json()
        assert d["ok"] is False
        assert d["symmetry_violations"]
        first = d["symmetry_violations"][0]
        assert set(first) == {"kind", "perm", "failed_at", "run", "initial_owners"}
        assert first["initial_owners"] is None  # flat memory has no owners

    @pytest.mark.parametrize(
        "fixture, kinds, checks, failed_at",
        [
            (FullQueueStallsProtocol, {"proc"}, 1436, 5),
            (OwnerBlocksGrantProtocol, {"proc", "loc"}, 1254, 1),
            (CopyBlocksWriteProtocol, {"proc", "loc"}, 1436, 6),
            (PartialOwnersProtocol, {"proc", "loc"}, 874, 1),
        ],
    )
    def test_asymmetric_piranha_flagged(self, fixture, kinds, checks, failed_at):
        # each breaks symmetry only in states a few events deep, or only in
        # its set of initial states; a sample of permuted replays passes all four
        p = fixture()
        report = validate_assumptions(p, depth=6)
        assert not report.ok
        assert not report.causality_violations
        assert report.symmetry_checks == checks
        assert {v.kind for v in report.symmetry_violations} == kinds
        assert report.symmetry_violations[0].failed_at == failed_at
        # each violation replays from its recorded initial state to a state
        # where the swap fails: its successors, or for a run of no events
        # the set of initial states, are not mapped onto themselves
        initial = p.initial_states()
        for v in report.symmetry_violations:
            assert v.initial_state in initial
            assert v.to_json()["initial_owners"] == list(p.view(v.initial_state).owner)
            s = replay(p, v.run, v.initial_state)
            image = {
                (permute_event(p, e, v.kind, v.perm), p.permute_state(s2, v.kind, v.perm))
                for e, s2 in p.successors(s)
            }
            swapped = p.permute_state(s, v.kind, v.perm)
            assert set(p.successors(swapped)) != image or (
                not v.run and swapped not in initial
            )

    def test_totals_count_past_the_cap(self):
        # the fixture breaks the processor swap in exactly the states with a
        # full queue; depth 6 checks every state within 5 events, and the
        # report lists only the first 20 of them
        fixture = FullQueueStallsProtocol()
        seen = set(fixture.initial_states())
        frontier = list(seen)
        for _ in range(5):
            frontier = [s2 for s in frontier for _e, s2 in fixture.successors(s) if s2 not in seen]
            seen.update(frontier)
        full = sum(any(len(q) == fixture.queue_bound for q in fixture.view(s).inq) for s in seen)
        report = validate_assumptions(fixture, depth=6)
        assert report.symmetry_total == full == 96
        assert len(report.symmetry_violations) == 20
        assert report.causality_total == 0
        payload = report.to_json()
        assert (payload["symmetry_total"], payload["causality_total"]) == (96, 0)

    def test_initial_states_must_map_onto_themselves(self):
        report = validate_assumptions(PartialOwnersProtocol(), depth=0)
        assert report.nodes == 2 and report.symmetry_checks == 4
        # owners (1, 1) and (1, 2) go to (2, 2) and (2, 1) under the
        # processor swap; (1, 2) goes to (2, 1) under the location swap
        assert [(v.kind, v.run.events) for v in report.symmetry_violations] == [
            ("proc", ()), ("proc", ()), ("loc", ())
        ]

    @pytest.mark.parametrize(
        "name, n, m, q",
        [
            (name, *size)
            for name in ("piranha", "piranha-buggy")
            for size in ((2, 2, 3), (3, 2, 1), (2, 3, 1))
        ],
    )
    def test_swaps_stand_in_for_every_permutation(self, name, n, m, q):
        # where the local check passes, every one of the n! * m! joint
        # permutations of runs spread across the search replays from the
        # permuted initial state, and ends in the permuted final state
        p = make_protocol(name, n, m, q)
        assert validate_assumptions(p, depth=6).ok
        initial = set(p.initial_states())
        perms = list(itertools.product(
            itertools.permutations(range(1, n + 1)), itertools.permutations(range(1, m + 1))
        ))
        runs = runs_across_search(p, depth=6, count=40)
        assert len(runs) >= 40
        for root, run in runs:
            final = replay(p, run, root)
            for proc_perm, loc_perm in perms:
                image = permute_run(p, permute_run(p, run, "proc", proc_perm), "loc", loc_perm)
                image_root, image_final = (
                    p.permute_state(p.permute_state(s, "proc", proc_perm), "loc", loc_perm)
                    for s in (root, final)
                )
                assert image_root in initial
                assert replay(p, image, image_root) == image_final

    def test_negative_depth(self):
        with pytest.raises(ParameterError):
            validate_assumptions(PrivilegedWriterProtocol(), depth=-1)

    @pytest.mark.parametrize("depth", [2.5, 1.0, True, "2"])
    def test_depth_must_be_an_int(self, depth):
        # a float depth would never equal a level: 2.5 would explore every state
        with pytest.raises(ParameterError):
            validate_assumptions(PrivilegedWriterProtocol(), depth=depth)
