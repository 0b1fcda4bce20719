import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmc import (
    MemoryEvent,
    NiceCycle,
    Params,
    PreconditionError,
    Trace,
    build_constraint_graph,
    find_cycle,
    find_minimal_nice_cycle,
    find_nice_cycle,
    verify_nice_cycle,
)
from scmc import witness
from scmc.analysis import is_causal, is_unambiguous
from scmc.errors import ParameterError
from scmc.witness import ConstraintGraph
from corpus import store_buffer_ring, store_buffer_tail
from reference_trace import expanded_order, permute_locs, permute_procs, positions
from reference_witness import NaiveGraph, is_cycle_of
from strategies import (
    analyzable_traces,
    arbitrary_traces,
    permutations_of,
    unambiguous_causal_traces,
)

W = lambda p, l, d: MemoryEvent("W", p, l, d)
R = lambda p, l, d: MemoryEvent("R", p, l, d)

EXAMPLE = Trace((W(1, 1, 1), R(2, 1, 0), R(2, 1, 1)), Params(2, 1, 1))
VIOLATION = Trace(
    (W(1, 1, 1), R(1, 2, 0), W(2, 2, 1), R(2, 1, 0)), Params(2, 2, 1)
)


class TestExpandedOrder:
    """The location edges of the constraint graph, as tests/reference_trace.py lists them."""

    def test_example(self):
        assert expanded_order(EXAMPLE, 1) == {(2, 1), (2, 3), (1, 3)}

    def test_single_read(self):
        t = Trace((R(1, 1, 0),), Params(1, 1, 1))
        assert expanded_order(t, 1) == set()

    def test_two_writes(self):
        t = Trace((W(1, 1, 1), W(2, 1, 2)), Params(2, 1, 2))
        assert expanded_order(t, 1) == {(1, 2)}

    def test_zero_writes_to_location(self):
        t = Trace((R(1, 1, 0), R(2, 1, 0), W(1, 2, 1)), Params(2, 2, 1))
        assert expanded_order(t, 1) == set()

    def test_requires_unambiguous(self):
        t = Trace((W(1, 1, 1), W(2, 1, 1)), Params(2, 1, 1))
        with pytest.raises(PreconditionError):
            expanded_order(t, 1)

    def test_requires_causal(self):
        t = Trace((R(1, 1, 1),), Params(1, 1, 1))
        with pytest.raises(PreconditionError):
            expanded_order(t, 1)

    def test_unused_location(self):
        # the graph's tables hold only the locations the events use
        t = Trace((W(1, 2, 1), R(1, 2, 1)), Params(1, 3, 1))
        assert set(build_constraint_graph(t).loc_members) == {2}
        assert expanded_order(t, 1) == expanded_order(t, 3) == frozenset()

    @given(unambiguous_causal_traces())
    def test_pairs_stay_within_location(self, trace):
        for j in range(1, trace.params.m + 1):
            members = set(positions(trace, loc=j))
            for x, y in expanded_order(trace, j):
                assert x in members and y in members

    @given(unambiguous_causal_traces())
    def test_expanded_order_is_partial_order(self, trace):
        for j in range(1, trace.params.m + 1):
            rel = expanded_order(trace, j)
            for x, y in rel:
                assert x != y, "irreflexive"
                assert (y, x) not in rel, "antisymmetric"
                for y2, z in rel:
                    if y2 == y:
                        assert (x, z) in rel, "transitive"

    @given(unambiguous_causal_traces())
    def test_expanded_order_is_almost_total(self, trace):
        # whenever (r, s) is in the order and t is any event at the same
        # location, at least one of (r, t), (t, s) is in the order
        for j in range(1, trace.params.m + 1):
            rel = expanded_order(trace, j)
            members = positions(trace, loc=j)
            for r, s in rel:
                for t in members:
                    assert (r, t) in rel or (t, s) in rel

    @given(unambiguous_causal_traces(), st.data())
    def test_processor_permutation_leaves_order(self, trace, data):
        perm = data.draw(permutations_of(trace.params.n))
        image = permute_procs(trace, perm)
        for j in range(1, trace.params.m + 1):
            assert expanded_order(trace, j) == expanded_order(image, j)

    @given(unambiguous_causal_traces(), st.data())
    def test_location_permutation_relabels_order(self, trace, data):
        perm = data.draw(permutations_of(trace.params.m))
        image = permute_locs(trace, perm)
        for j in range(1, trace.params.m + 1):
            assert expanded_order(trace, j) == expanded_order(image, perm[j - 1])

    @given(unambiguous_causal_traces(), st.data())
    def test_processor_permutation_relabels_program_order(self, trace, data):
        perm = data.draw(permutations_of(trace.params.n))
        image = permute_procs(trace, perm)
        for i in range(1, trace.params.n + 1):
            assert positions(trace, proc=i) == positions(image, proc=perm[i - 1])


class TestConstraintGraph:
    def test_example_edges(self):
        g = build_constraint_graph(EXAMPLE)
        assert g.proc_edge_label(2, 3) == 2
        assert g.proc_edge_label(3, 2) is None
        assert g.proc_edge_label(1, 2) is None
        assert g.loc_edge_label(2, 1) == 1
        assert g.loc_edge_label(2, 3) == 1
        assert g.loc_edge_label(1, 3) == 1
        assert g.loc_edge_label(3, 1) is None

    def test_violation_cycle_edges(self):
        g = build_constraint_graph(VIOLATION)
        assert g.proc_edge_label(1, 2) == 1
        assert g.loc_edge_label(2, 3) == 2
        assert g.proc_edge_label(3, 4) == 2
        assert g.loc_edge_label(4, 1) == 1

    def test_empty_trace(self):
        g = build_constraint_graph(Trace((), Params(1, 1, 1)))
        assert len(g) == 0
        assert find_cycle(g) is None

    def test_rejects_ambiguous(self):
        with pytest.raises(PreconditionError):
            build_constraint_graph(Trace((W(1, 1, 1), W(2, 1, 1)), Params(2, 1, 1)))

    @settings(max_examples=300)
    @given(arbitrary_traces())
    def test_preconditions_match_the_analysis_checks(self, trace):
        # the build checks both in its ranking pass, ambiguity first
        unambiguous = is_unambiguous(trace)
        try:
            build_constraint_graph(trace)
        except PreconditionError as exc:
            assert not (unambiguous and is_causal(trace))
            assert str(exc) == (
                "trace is ambiguous (repeated or zero write values)"
                if not unambiguous
                else "trace is not causal (read without a matching write)"
            )
        else:
            assert unambiguous and is_causal(trace)


class TestFindCycle:
    def test_example_acyclic(self):
        assert find_cycle(build_constraint_graph(EXAMPLE)) is None

    def test_violation_cycle(self):
        cyc = find_cycle(build_constraint_graph(VIOLATION))
        assert cyc is not None
        assert sorted(cyc) == [1, 2, 3, 4]

    def test_one_nice_shape(self):
        t = Trace((W(1, 1, 1), R(1, 1, 0)), Params(1, 1, 1))
        cyc = find_cycle(build_constraint_graph(t))
        assert cyc is not None
        assert sorted(cyc) == [1, 2]

    @given(analyzable_traces())
    def test_cycle_is_a_cycle_of_the_full_graph(self, trace):
        g = build_constraint_graph(trace)
        cyc = find_cycle(g)
        assert cyc is None or is_cycle_of(g, cyc)


class TestLinearWork:
    def test_find_cycle_fetches_each_vertex_once(self, long_walk, monkeypatch):
        fetched = {}
        original = ConstraintGraph.successors

        def successors(graph, u):
            assert u not in fetched, f"successors of {u} fetched twice"
            fetched[u] = original(graph, u)
            return fetched[u]

        monkeypatch.setattr(ConstraintGraph, "successors", successors)
        assert len(long_walk) == 10_000
        assert find_cycle(build_constraint_graph(long_walk)) is None
        assert sorted(fetched) == list(range(1, len(long_walk) + 1))
        assert sum(len(s) for s in fetched.values()) <= 3 * len(long_walk)
        # the analyze path on a cyclic graph: cycle, then nice-cycle search
        fetched.clear()
        trace = store_buffer_tail(random.Random(1), long_walk)
        graph = build_constraint_graph(trace)
        assert find_cycle(graph) is not None
        assert find_minimal_nice_cycle(graph) is not None
        assert sorted(fetched) == list(range(1, len(trace) + 1))

    def test_acyclic_graph_skips_nice_cycle_search(self, long_walk, monkeypatch):
        fetched = Counter()
        original = ConstraintGraph.successors

        def successors(graph, u):
            fetched[u] += 1
            return original(graph, u)

        def find_nice_cycle(*args, **kwargs):
            pytest.fail("nice-cycle search ran on an acyclic graph")

        monkeypatch.setattr(ConstraintGraph, "successors", successors)
        monkeypatch.setattr(witness, "find_nice_cycle", find_nice_cycle)
        graph = build_constraint_graph(long_walk)
        assert find_minimal_nice_cycle(graph) is None
        assert find_cycle(graph) is None
        assert fetched == Counter(range(1, len(long_walk) + 1))

    def test_nice_cycle_search_stays_in_the_cycle(self, long_walk, monkeypatch):
        size = len(long_walk)
        expanded = []
        original = ConstraintGraph._later_on_proc

        def later_on_proc(graph, u):
            # fail at once: a search outside the tail takes super-linear time
            assert u > size, f"expanded {u}, outside the store-buffer tail"
            expanded.append(u)
            return original(graph, u)

        monkeypatch.setattr(ConstraintGraph, "_later_on_proc", later_on_proc)
        for k in range(1, 4):
            assert find_nice_cycle(build_constraint_graph(long_walk), k) is None
        trace = store_buffer_tail(random.Random(1), long_walk)
        nice = find_minimal_nice_cycle(build_constraint_graph(trace))
        assert nice is not None and nice.k == 2
        assert nice.vertices == (size + 1, size + 2, size + 3, size + 4)
        assert expanded


class TestAgainstReference:
    """Every result must equal the naive reference's (tests/reference_witness.py)."""

    @settings(max_examples=300)
    @given(analyzable_traces())
    def test_edge_labels(self, trace):
        g, ref = build_constraint_graph(trace), NaiveGraph(trace)
        size = len(trace)
        for u in range(1, size + 1):
            for v in range(1, size + 1):
                assert g.loc_edge_label(u, v) == ref.loc_edge_label(u, v)

    @settings(max_examples=300)
    @given(analyzable_traces())
    def test_cycle_searches(self, trace):
        g, ref = build_constraint_graph(trace), NaiveGraph(trace)
        for k in range(1, min(trace.params.n, trace.params.m) + 1):
            assert find_nice_cycle(g, k) == ref.find_nice_cycle(k)
        assert find_minimal_nice_cycle(g) == ref.find_minimal_nice_cycle()
        assert (find_cycle(g) is not None) == ref.has_cycle()

    @settings(max_examples=300)
    @given(analyzable_traces())
    def test_components(self, trace):
        component, _ = build_constraint_graph(trace)._components
        reach = NaiveGraph(trace).reachable()
        vertices = range(1, len(trace) + 1)
        for u in vertices:
            assert (component[u] != 0) == ((u, u) in reach)
            for v in vertices:
                if u != v:
                    shared = component[u] != 0 and component[u] == component[v]
                    assert shared == ((u, v) in reach and (v, u) in reach)


class TestNiceCycle:
    def test_violation_trace_canonical(self):
        g = build_constraint_graph(VIOLATION)
        nc = find_nice_cycle(g, 2)
        assert nc == NiceCycle((1, 2, 3, 4), (1, 2), (2, 1))
        assert verify_nice_cycle(g, nc)

    def test_example_has_none(self):
        g = build_constraint_graph(EXAMPLE)
        assert find_nice_cycle(g, 1) is None

    def test_one_nice(self):
        t = Trace((W(1, 1, 1), R(1, 1, 0)), Params(1, 1, 1))
        g = build_constraint_graph(t)
        nc = find_nice_cycle(g, 1)
        assert nc is not None
        assert nc.vertices == (1, 2)
        assert nc.procs == (1,) and nc.locs == (1,)
        assert nc.canonical
        assert verify_nice_cycle(g, nc)

    def test_k_out_of_range(self):
        g = build_constraint_graph(VIOLATION)
        with pytest.raises(ParameterError):
            find_nice_cycle(g, 0)
        with pytest.raises(ParameterError):
            find_nice_cycle(g, 3)

    @pytest.mark.parametrize("k", [None, "1", 1.0, True])
    def test_k_must_be_an_int(self, k):
        # True would act as 1 and the rest raise TypeError
        with pytest.raises(ParameterError):
            find_nice_cycle(build_constraint_graph(VIOLATION), k)

    def test_minimal_search(self):
        g = build_constraint_graph(VIOLATION)
        nc = find_minimal_nice_cycle(g)
        assert nc is not None and nc.k == 2

    # the ring is one component with least k = n, so the search backtracks
    # through every shorter alternation before it closes
    @pytest.mark.parametrize("n", [3, 12, 30])
    def test_store_buffer_ring(self, n):
        g = build_constraint_graph(store_buffer_ring(n))
        nc = find_minimal_nice_cycle(g)
        expected = tuple(v for i in range(1, n + 1) for v in (i, n + i))
        assert nc == NiceCycle(expected, tuple(range(1, n + 1)), (*range(2, n + 1), 1))
        assert nc.canonical and verify_nice_cycle(g, nc)
        if n <= 12:
            assert all(find_nice_cycle(g, k) is None for k in range(1, n))

    def test_verify_rejects_wrong_labels(self):
        g = build_constraint_graph(VIOLATION)
        bad = NiceCycle((1, 2, 3, 4), (1, 2), (1, 2))
        assert not verify_nice_cycle(g, bad)

    def test_verify_rejects_duplicate_vertices(self):
        g = build_constraint_graph(VIOLATION)
        bad = NiceCycle((1, 2, 1, 2), (1, 2), (2, 1))
        assert not verify_nice_cycle(g, bad)

    def test_verify_rejects_empty_cycle(self):
        for trace in (EXAMPLE, VIOLATION):
            assert not verify_nice_cycle(build_constraint_graph(trace), NiceCycle((), (), ()))

    def test_verify_rejects_vertices_outside_the_trace(self, monkeypatch):
        # R(1,1,0) W(2,1,1) is acyclic; vertex -1 would index it from its end
        g = build_constraint_graph(Trace((R(1, 1, 0), W(2, 1, 1)), Params(2, 1, 1)))
        assert find_cycle(g) is None

        def no_edge_query(*args):
            pytest.fail("edge queried before the vertex range check")

        monkeypatch.setattr(ConstraintGraph, "proc_edge_label", no_edge_query)
        monkeypatch.setattr(ConstraintGraph, "loc_edge_label", no_edge_query)
        for vertices in ((-1, 1), (0, 1), (1, 3), (3, 1)):
            assert not verify_nice_cycle(g, NiceCycle(vertices, (1,), (1,)))

    def test_canonical_follows_labels(self):
        assert NiceCycle((1, 2, 3, 4), (1, 2), (2, 1)).canonical
        assert not NiceCycle((1, 2, 3, 4), (2, 1), (2, 1)).canonical
        assert not NiceCycle((1, 2, 3, 4), (1, 2), (1, 2)).canonical
        # a flag read back from to_json is accepted only if the labels agree
        assert NiceCycle((1, 2, 3, 4), (1, 2), (2, 1), True).canonical
        with pytest.raises(ParameterError):
            NiceCycle((1, 2, 3, 4), (1, 2), (2, 1), False)
        with pytest.raises(ParameterError):
            NiceCycle((1, 2, 3, 4), (1, 2), (1, 2), True)

    def test_to_json(self):
        nc = NiceCycle((1, 2, 3, 4), (1, 2), (2, 1))
        assert nc.to_json() == {
            "k": 2,
            "vertices": [1, 2, 3, 4],
            "procs": [1, 2],
            "locs": [2, 1],
            "canonical": True,
        }

    @given(unambiguous_causal_traces())
    def test_nice_cycles_verify(self, trace):
        g = build_constraint_graph(trace)
        k_max = min(trace.params.n, trace.params.m)
        for k in range(1, k_max + 1):
            nc = find_nice_cycle(g, k)
            if nc is not None:
                assert verify_nice_cycle(g, nc)
                assert nc.k == k

    @given(unambiguous_causal_traces())
    def test_cycle_iff_nice_cycle(self, trace):
        g = build_constraint_graph(trace)
        k_max = min(trace.params.n, trace.params.m)
        has_cycle = find_cycle(g) is not None
        has_nice = any(
            find_nice_cycle(g, k) is not None for k in range(1, k_max + 1)
        )
        assert has_cycle == has_nice
