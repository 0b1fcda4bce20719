import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmc import (
    MemoryEvent,
    OracleBoundError,
    Params,
    SerialWitness,
    Trace,
    check_sc_oracle,
    is_causal,
    is_serial,
    is_unambiguous,
    respects_program_order,
)
from scmc import analysis
from scmc.errors import ParameterError
from corpus import all_traces, serial_trace
from reference_oracle import PERMUTATION_BOUND, permutation_oracle
from reference_trace import rename_data
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


class TestUnambiguous:
    def test_example(self):
        assert is_unambiguous(EXAMPLE)

    def test_zero_write(self):
        assert not is_unambiguous(Trace((W(1, 1, 0),), Params(1, 1, 1)))

    def test_duplicate_write_value(self):
        t = Trace((W(1, 1, 1), W(2, 1, 1)), Params(2, 1, 1))
        assert not is_unambiguous(t)

    def test_same_value_different_locations_ok(self):
        t = Trace((W(1, 1, 1), W(1, 2, 1)), Params(1, 2, 1))
        assert is_unambiguous(t)

    @given(unambiguous_causal_traces())
    def test_generator_agrees(self, trace):
        assert is_unambiguous(trace)
        assert is_causal(trace)

    @staticmethod
    def per_location(trace):
        """The definition, location by location."""
        for j in range(1, trace.params.m + 1):
            values = [e.data for e in trace.events if e.loc == j and e.op == "W"]
            if 0 in values or len(set(values)) != len(values):
                return False
        return True

    @given(st.one_of(arbitrary_traces(), analyzable_traces()))
    def test_single_pass_matches_definition(self, trace):
        assert is_unambiguous(trace) == self.per_location(trace)

    def test_single_pass_matches_definition_on_corpus(self):
        for trace in all_traces():
            assert is_unambiguous(trace) == self.per_location(trace)


class TestCausal:
    def test_read_matches_write(self):
        assert is_causal(Trace((W(1, 1, 1), R(2, 1, 1)), Params(2, 1, 1)))

    def test_conjured_value(self):
        assert not is_causal(Trace((R(1, 1, 5),), Params(1, 1, 5)))

    def test_initial_reads(self):
        assert is_causal(Trace((R(1, 1, 0), R(2, 2, 0)), Params(2, 2, 1)))

    def test_read_before_write_is_causal(self):
        assert is_causal(Trace((R(1, 1, 1), W(2, 1, 1)), Params(2, 1, 1)))


class TestSerial:
    def test_permuted_example_is_serial(self):
        assert is_serial(Trace((R(2, 1, 0), W(1, 1, 1), R(2, 1, 1)), Params(2, 1, 1)))

    def test_read_missing_latest_write(self):
        assert not is_serial(Trace((W(1, 1, 1), R(2, 1, 0)), Params(2, 1, 1)))

    def test_empty(self):
        assert is_serial(Trace((), Params(1, 1, 1)))

    def test_writes_self_satisfy(self):
        assert is_serial(Trace((W(1, 1, 1), W(1, 1, 0), R(1, 1, 0)), Params(1, 1, 1)))


class TestSerialWitness:
    def test_validates_permutation(self):
        with pytest.raises(ParameterError):
            SerialWitness((1, 1))
        with pytest.raises(ParameterError):
            SerialWitness((0, 1))

    def test_apply_places_events(self):
        w = SerialWitness((2, 1, 3))
        out = w.apply(EXAMPLE)
        assert out.events == (R(2, 1, 0), W(1, 1, 1), R(2, 1, 1))

    def test_apply_length_mismatch(self):
        with pytest.raises(ParameterError):
            SerialWitness((1,)).apply(EXAMPLE)

    @pytest.mark.parametrize("f", [(1,), (1, 2, 3)])
    def test_program_order_length_mismatch(self, f):
        trace = Trace((W(1, 1, 1), R(1, 1, 1)), Params(1, 1, 1))
        with pytest.raises(ParameterError):
            respects_program_order(trace, f)

    @pytest.mark.parametrize("f, respects", [
        ((1, 2, 3, 4), True),
        ((2, 1, 4, 3), True),
        ((1, 4, 2, 3), False),  # only processor 2's order breaks
        ((1, 2, 1, 3), False),  # processor 1's two events share a position
    ])
    def test_program_order_cases(self, f, respects):
        # processor 1 runs events 1 and 3, processor 2 events 2 and 4
        trace = Trace((W(1, 1, 1), W(2, 1, 2), R(1, 1, 2), R(2, 1, 1)), Params(2, 1, 2))
        assert respects_program_order(trace, f) == respects

    @settings(max_examples=200)
    @given(arbitrary_traces(), st.data())
    def test_program_order_matches_definition(self, trace, data):
        # the all-pairs definition, for a random permutation and for two
        # changes to the identity: a swap, which breaks at most the order of
        # two processors, and a repeated position, which tells a strict
        # compare from one that admits equality
        size = len(trace)

        def identity_but(changes):
            return [changes.get(x, x) for x in range(1, size + 1)]

        position = st.integers(1, max(size, 1))
        pair = st.tuples(position, position)
        f = data.draw(st.one_of(
            permutations_of(size),
            pair.map(lambda ij: identity_but({ij[0]: ij[1], ij[1]: ij[0]})),
            pair.map(lambda ij: identity_but({ij[0]: ij[1]})),
        ))
        events = trace.events
        expected = all(
            f[u - 1] < f[v - 1]
            for u in range(1, size + 1)
            for v in range(u + 1, size + 1)
            if events[u - 1].proc == events[v - 1].proc
        )
        assert respects_program_order(trace, tuple(f)) == expected


class TestOracle:
    def test_example_witness(self):
        w = check_sc_oracle(EXAMPLE)
        assert w is not None and w.f == (2, 1, 3)

    def test_example_witness_permutation_engine(self):
        w = permutation_oracle(EXAMPLE)
        assert w is not None and w.f == (2, 1, 3)

    def test_witness_inverts_least_serialization(self):
        # checked by hand: the three events are on different processors,
        # and event 1 reads the 1 that event 3 writes, so the valid serial
        # orders are those with 3 before 1: 2 3 1, 3 1 2 and 3 2 1.  The
        # least, 2 3 1, puts event 1 third, event 2 first and event 3
        # second.  The least f, (2, 3, 1), is the inverse of 3 1 2 instead.
        trace = Trace((R(2, 1, 1), R(1, 2, 0), W(3, 1, 1)), Params(3, 2, 1))
        for oracle in (check_sc_oracle, permutation_oracle):
            w = oracle(trace)
            assert w is not None and w.f == (3, 1, 2)

    def test_violation_is_refused(self):
        assert check_sc_oracle(VIOLATION) is None
        assert permutation_oracle(VIOLATION) is None

    def test_empty_trace_identity(self):
        w = check_sc_oracle(Trace((), Params(1, 1, 1)))
        assert w is not None and w.f == ()

    def test_bound_enforced(self):
        t = Trace((R(1, 1, 0),) * 11, Params(1, 1, 1))
        with pytest.raises(OracleBoundError, match="10"):
            check_sc_oracle(t)
        assert check_sc_oracle(t, bound=11) is not None

    def test_negative_bound_rejected(self):
        with pytest.raises(ParameterError):
            check_sc_oracle(Trace((), Params(1, 1, 1)), bound=-1)

    def test_memory_sized_by_locations_used(self):
        # the header declares 10^7 locations; the search's memory has one
        trace = Trace((W(1, 1, 1),), Params(1, 10_000_000, 1))
        tracemalloc.start()
        try:
            w = check_sc_oracle(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w is not None and w.f == (1,)
        assert peak < 1_000_000

    def test_witness_independent_of_location_numbering(self):
        # spreading the corpus' locations over 1..10^4 changes no witness
        for trace in all_traces()[::7]:
            spread = Trace(
                tuple(e._replace(loc=e.loc * 3_331) for e in trace.events),
                Params(trace.params.n, 10_000, trace.params.v),
            )
            a, b = check_sc_oracle(trace), check_sc_oracle(spread)
            assert (a is None and b is None) or a.f == b.f

    def test_permutation_engine_bound(self):
        t = Trace((R(1, 1, 0),) * (PERMUTATION_BOUND + 1), Params(1, 1, 1))
        with pytest.raises(OracleBoundError):
            permutation_oracle(t)

    @given(unambiguous_causal_traces(max_len=6))
    def test_witness_certifies(self, trace):
        w = check_sc_oracle(trace)
        if w is not None:
            assert respects_program_order(trace, w.f)
            assert is_serial(w.apply(trace))

    @given(unambiguous_causal_traces(max_len=6))
    def test_engines_agree_including_witness(self, trace):
        a = check_sc_oracle(trace)
        b = permutation_oracle(trace)
        if a is None:
            assert b is None
        else:
            assert b is not None and a.f == b.f

    @given(arbitrary_traces(max_len=6))
    def test_engines_agree_on_arbitrary_traces(self, trace):
        a = check_sc_oracle(trace)
        b = permutation_oracle(trace)
        if a is None:
            assert b is None
        else:
            assert b is not None and a.f == b.f

    @staticmethod
    def count_searches(monkeypatch):
        calls = [0]
        search = analysis._serialize

        def counted(*args):
            calls[0] += 1
            return search(*args)

        monkeypatch.setattr(analysis, "_serialize", counted)
        return calls

    def test_serial_trace_takes_one_search(self, monkeypatch):
        # longer than the interpreter's default recursion limit
        trace = serial_trace(600)
        calls = self.count_searches(monkeypatch)
        w = check_sc_oracle(trace, bound=2000)
        assert w is not None and w.f == tuple(range(1, 1201))
        assert calls[0] == 1

    def test_searches_on_corpus(self, monkeypatch):
        # the first serialization found is the least, so no trace needs a
        # second search
        calls = self.count_searches(monkeypatch)
        traces = all_traces()
        for trace in traces:
            w = check_sc_oracle(trace)
            if w is not None:
                assert respects_program_order(trace, w.f)
                assert is_serial(w.apply(trace))
        assert calls[0] == len(traces)

    @given(arbitrary_traces(max_len=6))
    def test_serial_implies_sc(self, trace):
        if is_serial(trace):
            assert check_sc_oracle(trace) is not None

    @given(unambiguous_causal_traces(max_len=6), st.data())
    def test_sc_preserved_under_renaming(self, trace, data):
        pairs = sorted({(e.loc, e.data) for e in trace.events if e.data != 0})
        values = data.draw(
            st.lists(
                st.integers(0, 4), min_size=len(pairs), max_size=len(pairs)
            )
        )
        lam = dict(zip(pairs, values))
        if check_sc_oracle(trace) is not None:
            assert check_sc_oracle(rename_data(trace, lam)) is not None
