import pytest
from hypothesis import given
from hypothesis import strategies as st

from scmc import MemoryEvent, Params, Trace
from scmc.errors import ParameterError
from scmc.monitors import A, B, ERR, CheckAutomaton, ConstrainAutomaton, accepts

W = lambda p, l, d: MemoryEvent("W", p, l, d)
R = lambda p, l, d: MemoryEvent("R", p, l, d)


class TestConstrainStep:
    def test_low_location_accept_path(self):
        c = ConstrainAutomaton(1, 2)
        s = c.initial()
        assert s == A
        s = c.step(s, W(1, 1, 0))
        assert s == A
        s = c.step(s, W(2, 1, 1))
        assert s == B
        s = c.step(s, W(1, 1, 2))
        assert s == B

    def test_blocked_combinations(self):
        c = ConstrainAutomaton(1, 2)
        assert c.step(A, W(1, 1, 2)) is None  # 2 before the 1-write
        assert c.step(B, W(1, 1, 1)) is None  # second 1-write
        assert c.step(B, W(1, 1, 0)) is None  # 0 after the 1-write
        assert c.step(A, W(1, 1, 3)) is None  # data outside {0, 1, 2}
        assert c.step(B, W(1, 1, 3)) is None

    def test_non_writes_self_loop(self):
        c = ConstrainAutomaton(1, 2)
        for phase in (A, B):
            assert c.step(phase, R(1, 1, 0)) == phase
            assert c.step(phase, R(2, 1, 2)) == phase

    def test_other_location_writes_ignored(self):
        c = ConstrainAutomaton(1, 2)
        assert c.step(A, W(1, 2, 2)) == A
        assert c.step(B, W(1, 2, 1)) == B

    def test_high_location_only_zero_writes(self):
        c = ConstrainAutomaton(3, 2)
        s = c.initial()
        assert s == A
        assert c.step(s, W(1, 3, 0)) == s
        assert c.step(s, W(1, 3, 1)) is None
        assert c.step(s, W(1, 3, 2)) is None

    def test_blocking_never_mutates(self):
        c = ConstrainAutomaton(1, 2)
        before = (c.loc, c.k, c.states)
        assert c.step(B, W(1, 1, 1)) is None
        assert (c.loc, c.k, c.states) == before
        assert c.step(B, W(1, 1, 2)) == B


class TestCheckStep:
    def test_first_trigger(self):
        c = CheckAutomaton(1, 2)
        s = c.initial()
        assert s == A
        assert c.step(s, R(1, 1, 2)) == B
        assert c.step(s, W(1, 1, 1)) == B

    def test_err_trigger(self):
        c = CheckAutomaton(1, 2)
        assert c.step(B, R(1, 2, 0)) == ERR
        assert c.step(B, W(1, 2, 1)) == ERR
        assert c.step(B, W(1, 2, 0)) == ERR

    def test_non_triggers(self):
        c = CheckAutomaton(1, 2)
        assert c.step(A, R(1, 1, 0)) == A  # data 0 does not arm
        assert c.step(A, R(2, 1, 1)) == A  # wrong processor
        assert c.step(A, R(1, 2, 1)) == A  # wrong location
        assert c.step(B, R(1, 2, 2)) == B  # read of 2 does not fire
        assert c.step(B, R(1, 1, 0)) == B  # wrong location
        assert c.step(B, R(2, 2, 0)) == B  # wrong processor

    def test_err_absorbing(self):
        c = CheckAutomaton(1, 2)
        for ev in (R(1, 1, 0), W(1, 2, 1), R(2, 1, 2)):
            assert c.step(ERR, ev) == ERR

    def test_location_wraps_modulo_k(self):
        # for i = k the err trigger watches location 1
        assert CheckAutomaton(2, 2).step(B, R(2, 1, 0)) == ERR
        assert CheckAutomaton(1, 1).step(B, R(1, 1, 0)) == ERR

    def test_proc_bound_validated(self):
        with pytest.raises(ParameterError):
            CheckAutomaton(3, 2)
        with pytest.raises(ParameterError):
            CheckAutomaton(0, 2)
        with pytest.raises(ParameterError):
            ConstrainAutomaton(0, 2)
        with pytest.raises(ParameterError):
            ConstrainAutomaton(1, 0)


class TestAutomata:
    def test_state_counts(self):
        assert ConstrainAutomaton(1, 2).states == (A, B)
        assert ConstrainAutomaton(3, 2).states == (A,)
        assert CheckAutomaton(1, 2).states == (A, B, ERR)

    def test_constrain_accepts_exact_shape(self):
        t = Trace((W(1, 1, 0), W(2, 1, 1), W(1, 1, 2)), Params(2, 1, 2))
        assert accepts(t, ConstrainAutomaton(1, 2))

    def test_constrain_rejects_blocked_event(self):
        t = Trace((W(1, 1, 1), W(2, 1, 1)), Params(2, 1, 2))
        assert not accepts(t, ConstrainAutomaton(1, 2))

    def test_constrain_accepts_empty(self):
        assert accepts(Trace((), Params(1, 1, 2)), ConstrainAutomaton(1, 1))

    def test_check_accepts_err_path(self):
        t = Trace((W(1, 1, 1), R(1, 2, 0)), Params(1, 2, 2))
        assert accepts(t, CheckAutomaton(1, 2))

    def test_check_rejects_empty(self):
        assert not accepts(Trace((), Params(1, 2, 2)), CheckAutomaton(1, 2))

    def test_data_domain_enforced(self):
        t = Trace((W(1, 1, 3),), Params(1, 1, 3))
        with pytest.raises(ParameterError):
            accepts(t, ConstrainAutomaton(1, 1))

    @given(
        st.lists(
            st.builds(
                MemoryEvent,
                st.sampled_from(["R", "W"]),
                st.integers(1, 2),
                st.integers(1, 2),
                st.integers(0, 2),
            ),
            max_size=8,
        )
    )
    def test_check_err_is_permanent(self, events):
        trace = Trace(tuple(events), Params(2, 2, 2))
        check = CheckAutomaton(1, 2)
        phase = check.initial()
        seen_err = False
        for e in trace.events:
            phase = check.step(phase, e)
            assert phase in check.states
            seen_err = seen_err or phase == ERR
            if seen_err:
                assert phase == ERR
        assert accepts(trace, check) == (phase == ERR)
