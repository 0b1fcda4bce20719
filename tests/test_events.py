import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scmc import (
    FormatError,
    InternalEvent,
    MemoryEvent,
    Params,
    ParameterError,
    Run,
    Trace,
    build_constraint_graph,
    dumps_jsonl,
    loads_run_jsonl,
    project_trace,
)
from scmc.analysis import _programs
from scmc.monitors import ConstrainAutomaton, accepts
from scmc.protocol import check_permutation
from reference_jsonl import reference_loads_run_jsonl
from reference_trace import permute_locs, permute_procs, rename_data
from strategies import (
    arbitrary_traces,
    jsonl_texts,
    permutations_of,
    unambiguous_causal_traces,
)

W = lambda p, l, d: MemoryEvent("W", p, l, d)
R = lambda p, l, d: MemoryEvent("R", p, l, d)

EXAMPLE_RUN = Run(
    (
        InternalEvent("ACKX", (1, 1)),
        InternalEvent("UPD", (1,)),
        W(1, 1, 1),
        R(2, 1, 0),
        InternalEvent("UPD", (2,)),
        InternalEvent("ACKS", (2, 1)),
        InternalEvent("UPD", (2,)),
        R(2, 1, 1),
    ),
    Params(2, 1, 1),
)
EXAMPLE_TRACE = Trace((W(1, 1, 1), R(2, 1, 0), R(2, 1, 1)), Params(2, 1, 1))


class TestParams:
    def test_bounds_validated(self):
        with pytest.raises(ParameterError):
            Params(0, 1, 1)
        with pytest.raises(ParameterError):
            Params(1, 1, 0)

    def test_trace_rejects_out_of_range_events(self):
        with pytest.raises(ParameterError):
            Trace((W(3, 1, 1),), Params(2, 1, 1))
        with pytest.raises(ParameterError):
            Trace((W(1, 2, 1),), Params(2, 1, 1))
        with pytest.raises(ParameterError):
            Trace((W(1, 1, 2),), Params(2, 1, 1))
        with pytest.raises(ParameterError):
            Trace((R(1, 1, -1),), Params(2, 1, 1))

    def test_trace_rejects_internal_events(self):
        with pytest.raises(ParameterError):
            Trace((InternalEvent("UPD", (1,)),), Params(1, 1, 1))

    # a bool is an int subclass and 1.0 == 1, but neither round-trips
    # through dumps_jsonl and loads_run_jsonl
    def test_params_reject_bools(self):
        for bounds in ((True, 1, 1), (1, True, 1), (1, 1, True), (2.0, 1, 1)):
            with pytest.raises(ParameterError):
                Params(*bounds)

    def test_trace_rejects_bool_and_float_fields(self):
        params = Params(2, 1, 1)
        for event in (W(True, 1, 1), W(1, True, 1), W(1, 1, True), W(1, 1, 1.0), R(1.0, 1, 0)):
            with pytest.raises(ParameterError):
                Trace((event,), params)
            with pytest.raises(ParameterError):
                Run((event,), params)
        with pytest.raises(ParameterError):
            Trace((MemoryEvent("W", True, 1, 1.0),), params)

    def test_run_rejects_bool_internal_params(self):
        with pytest.raises(ParameterError):
            Run((InternalEvent("UPD", (True,)),), Params(1, 1, 1))
        with pytest.raises(ParameterError):
            Run((InternalEvent("ACKX", (1, 1.0)),), Params(1, 1, 1))


class TestProjection:
    def test_eight_event_run(self):
        assert project_trace(EXAMPLE_RUN).events == EXAMPLE_TRACE.events

    def test_empty_run(self):
        assert len(project_trace(Run((), Params(1, 1, 1)))) == 0

    def test_internal_only_run(self):
        run = Run(
            (InternalEvent("UPD", (1,)), InternalEvent("UPD", (2,))), Params(2, 1, 1)
        )
        assert len(project_trace(run)) == 0

    def test_index_projections(self):
        # the oracle's per-processor split and the graph's per-location one
        assert _programs(EXAMPLE_TRACE) == ((1,), (2, 3))
        graph = build_constraint_graph(EXAMPLE_TRACE)
        assert graph.loc_members == {1: (1, 2, 3)}
        assert graph.writes == {1: (1,)}

    def test_empty_projection(self):
        # processor 2 and location 2 have no events, so neither split has them
        t = Trace((W(1, 1, 1),), Params(2, 2, 1))
        assert _programs(t) == ((1,),)
        assert build_constraint_graph(t).loc_members == {1: (1,)}

    @given(arbitrary_traces())
    def test_projection_order_preserved(self, trace):
        run = Run(trace.events, trace.params)
        assert project_trace(run).events == trace.events


class TestRenaming:
    """The trace renaming of tests/reference_trace.py: a dict, 0 fixed."""

    def test_zero_is_fixed(self):
        t = Trace((R(1, 1, 0), W(1, 1, 1)), Params(1, 1, 1))
        assert rename_data(t, {(1, 1): 2}).events == (R(1, 1, 0), W(1, 1, 2))

    def test_single_substitution(self):
        t = Trace((W(1, 1, 7), R(2, 1, 7)), Params(2, 1, 7))
        out = rename_data(t, {(1, 7): 1})
        assert out.events == (W(1, 1, 1), R(2, 1, 1))

    def test_identity(self):
        t = EXAMPLE_TRACE
        assert rename_data(t, {(e.loc, e.data): e.data for e in t}).events == t.events

    def test_renamed_writes_match_constrained_shape(self):
        # writes 5 then 9 at location 1, mapped to 0 then 1: the image is
        # exactly a write sequence the location-1 constraint accepts
        t = Trace((W(1, 1, 5), R(2, 1, 5), W(2, 1, 9)), Params(2, 1, 9))
        out = rename_data(t, {(1, 5): 0, (1, 9): 1})
        assert [e.data for e in out.events if e.op == "W"] == [0, 1]
        assert accepts(out, ConstrainAutomaton(1, 1))

    @given(unambiguous_causal_traces())
    def test_rename_preserves_shape(self, trace):
        out = rename_data(trace, {(e.loc, e.data): e.data for e in trace})
        assert [(e.op, e.proc, e.loc) for e in out.events] == [
            (e.op, e.proc, e.loc) for e in trace.events
        ]


class TestPermutation:
    """The trace permutations of tests/reference_trace.py: tuples, unchecked."""

    def test_proc_swap(self):
        t = Trace((W(1, 1, 1), R(2, 1, 1)), Params(2, 1, 1))
        assert permute_procs(t, (2, 1)).events == (W(2, 1, 1), R(1, 1, 1))

    def test_loc_swap(self):
        t = Trace((W(1, 1, 1), R(1, 2, 0)), Params(1, 2, 1))
        assert permute_locs(t, (2, 1)).events == (W(1, 2, 1), R(1, 1, 0))

    def test_non_bijection_rejected(self):
        # the check permute_run and permute_state make
        with pytest.raises(ParameterError):
            check_permutation((1, 1), 2)
        with pytest.raises(ParameterError):
            check_permutation((1, 2), 1)

    @given(arbitrary_traces(), st.data())
    def test_round_trip(self, trace, data):
        n, m = trace.params.n, trace.params.m
        pp = data.draw(permutations_of(n))
        lp = data.draw(permutations_of(m))
        inv_p = [0] * n
        for i, x in enumerate(pp, 1):
            inv_p[x - 1] = i
        inv_l = [0] * m
        for j, x in enumerate(lp, 1):
            inv_l[x - 1] = j
        assert permute_procs(permute_procs(trace, pp), inv_p).events == trace.events
        assert permute_locs(permute_locs(trace, lp), inv_l).events == trace.events


class TestJsonLines:
    def test_round_trip_run(self):
        text = dumps_jsonl(EXAMPLE_RUN)
        back = loads_run_jsonl(text)
        assert back == EXAMPLE_RUN

    def test_round_trip_trace(self):
        text = dumps_jsonl(EXAMPLE_TRACE)
        back = loads_run_jsonl(text)
        assert project_trace(back).events == EXAMPLE_TRACE.events

    def test_blank_lines_skipped(self):
        text = '{"n": 1, "m": 1, "v": 1}\n\n{"op": "W", "proc": 1, "loc": 1, "data": 1}\n\n'
        run = loads_run_jsonl(text)
        assert len(run.events) == 1

    def test_missing_header(self):
        with pytest.raises(FormatError):
            loads_run_jsonl("")
        with pytest.raises(FormatError, match="header"):
            loads_run_jsonl('{"op": "W", "proc": 1, "loc": 1, "data": 1}\n')

    def test_bad_json_reports_line(self):
        text = '{"n": 1, "m": 1, "v": 1}\n{"op": "W" "proc": 1}\n'
        with pytest.raises(FormatError, match="line 2"):
            loads_run_jsonl(text)

    def test_bad_event_reports_line(self):
        text = (
            '{"n": 1, "m": 1, "v": 1}\n'
            '{"op": "W", "proc": 1, "loc": 1, "data": 1}\n'
            '{"op": "W", "proc": 1}\n'
        )
        with pytest.raises(FormatError, match="line 3"):
            loads_run_jsonl(text)

    def test_extra_keys_rejected(self):
        text = '{"n": 1, "m": 1, "v": 1}\n{"op": "W", "proc": 1, "loc": 1, "data": 1, "x": 2}\n'
        with pytest.raises(FormatError):
            loads_run_jsonl(text)

    def test_out_of_range_event_rejected(self):
        text = '{"n": 1, "m": 1, "v": 1}\n{"op": "W", "proc": 2, "loc": 1, "data": 1}\n'
        with pytest.raises(FormatError):
            loads_run_jsonl(text)

    # json.loads reads true and false as bool, a subclass of int
    def test_boolean_event_field_rejected(self):
        text = '{"n": 1, "m": 1, "v": 1}\n{"op": "W", "proc": true, "loc": 1, "data": 1}\n'
        with pytest.raises(FormatError, match="line 2"):
            loads_run_jsonl(text)

    def test_boolean_internal_param_rejected(self):
        text = '{"n": 1, "m": 1, "v": 1}\n{"internal": "UPD", "params": [true]}\n'
        with pytest.raises(FormatError, match="line 2"):
            loads_run_jsonl(text)

    def test_boolean_header_rejected(self):
        with pytest.raises(FormatError, match="header"):
            loads_run_jsonl('{"n": true, "m": 1, "v": 1}\n')

    @given(unambiguous_causal_traces())
    def test_round_trip_property(self, trace):
        run = loads_run_jsonl(dumps_jsonl(trace))
        assert project_trace(run).events == trace.events
        assert run.params == trace.params

    def test_header_values_json_shape(self):
        lines = dumps_jsonl(EXAMPLE_RUN).splitlines()
        assert json.loads(lines[0]) == {"n": 2, "m": 1, "v": 1}
        assert json.loads(lines[1]) == {"internal": "ACKX", "params": [1, 1]}
        assert json.loads(lines[3]) == {"op": "W", "proc": 1, "loc": 1, "data": 1}


HEADER = '{"n": 2, "m": 2, "v": 2}\n'
EVENT = '{"op": "W", "proc": 1, "loc": 1, "data": 1}'

# Malformed and borderline inputs on which the decoder must agree with the
# per-line json.loads reference: same Run, or same error, message and line.
MALFORMED = {
    "trailing data": HEADER + EVENT + " x\n",
    "two values on a line": HEADER + EVENT + EVENT + "\n",
    "trailing data after spaces": HEADER + EVENT + " \u00a0 x\n",
    "trailing number": HEADER + "1 2\n",
    "header with trailing data": '{"n": 1, "m": 1, "v": 1} {}\n',
    "NaN field": HEADER + '{"op": "W", "proc": NaN, "loc": 1, "data": 1}\n',
    "Infinity field": HEADER + '{"op": "W", "proc": 1, "loc": 1, "data": -Infinity}\n',
    "NaN header": '{"n": NaN, "m": 1, "v": 1}\n',
    "NaN event": HEADER + "NaN\n",
    "float field": HEADER + '{"op": "W", "proc": 1.0, "loc": 1, "data": 1}\n',
    "boolean field": HEADER + '{"op": "W", "proc": true, "loc": 1, "data": 1}\n',
    "boolean header": '{"n": 1, "m": false, "v": 1}\n',
    "boolean param": HEADER + '{"internal": "UPD", "params": [1, true]}\n',
    "params not a list": HEADER + '{"internal": "UPD", "params": 1}\n',
    "label not a string": HEADER + '{"internal": 7, "params": []}\n',
    "extra key": HEADER + '{"op": "W", "proc": 1, "loc": 1, "data": 1, "x": 0}\n',
    "missing key": HEADER + '{"op": "W", "proc": 1, "loc": 1}\n',
    "missing params": HEADER + '{"internal": "UPD"}\n',
    "mixed keys": HEADER + '{"op": "W", "internal": "UPD"}\n',
    "neither kind": HEADER + '{"proc": 1}\n',
    "empty object": HEADER + "{}\n",
    "array event": HEADER + "[1, 2]\n",
    "string event": HEADER + '"W"\n',
    "null event": HEADER + "null\n",
    "header extra key": '{"n": 1, "m": 1, "v": 1, "k": 1}\n',
    "header missing key": '{"n": 1, "m": 1}\n',
    "header not an object": "[1, 1, 1]\n",
    "zero in header": '{"n": 0, "m": 1, "v": 1}\n',
    "event out of range": HEADER + '{"op": "W", "proc": 3, "loc": 1, "data": 1}\n',
    "bad op": HEADER + '{"op": "X", "proc": 1, "loc": 1, "data": 1}\n',
    "invalid JSON": HEADER + "{nope\n",
    "unterminated string": HEADER + '{"op": "W\n',
    "nested 100,000 deep": HEADER + "[" * 100_000 + "]" * 100_000 + "\n",
    "BOM before the header": "\ufeff" + HEADER,
    "BOM before an event": HEADER + "\ufeff" + EVENT + "\n",
    "BOM after spaces": HEADER + "  \ufeff" + EVENT + "\n",
    "BOM alone": HEADER + "\ufeff\n",
    "BOM after a value": HEADER + EVENT + "\ufeff\n",
    "empty input": "",
    "blank lines only": "\n \n\t\n",
    "header only": HEADER,
    "unicode blank line": HEADER + "\u00a0\u2028" + EVENT + "\x0c\n",
    "carriage returns": HEADER.replace("\n", "\r\n") + EVENT + "\r\n",
}


def decode_outcome(decode, text):
    """A decoder's Run, or the type, message and line of the error it raised."""
    try:
        return decode(text)
    except (FormatError, ParameterError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


class TestDecoderDifferential:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_agrees_with_per_line_json_loads(self, name):
        text = MALFORMED[name]
        want = decode_outcome(reference_loads_run_jsonl, text)
        assert decode_outcome(loads_run_jsonl, text) == want

    def test_bom_is_named(self):
        with pytest.raises(FormatError, match="line 2: invalid JSON \\(Unexpected UTF-8 BOM"):
            loads_run_jsonl(MALFORMED["BOM before an event"])

    def test_integer_past_digit_limit_is_format_error(self):
        # json.loads raises a plain ValueError here, which the reference lets out
        text = HEADER + '{"op": "W", "proc": 1, "loc": 1, "data": ' + "1" * 5000 + "}\n"
        with pytest.raises(ValueError) as ref:
            reference_loads_run_jsonl(text)
        assert not isinstance(ref.value, FormatError)
        with pytest.raises(FormatError, match="line 2: invalid JSON"):
            loads_run_jsonl(text)

    @given(jsonl_texts())
    def test_fuzzed_text_agrees_with_reference(self, text):
        # only FormatError or ParameterError may escape, and exactly when
        # the reference raises the same one
        assert decode_outcome(loads_run_jsonl, text) == decode_outcome(
            reference_loads_run_jsonl, text
        )

    @given(st.text())
    def test_arbitrary_text_agrees_with_reference(self, text):
        assert decode_outcome(loads_run_jsonl, text) == decode_outcome(
            reference_loads_run_jsonl, text
        )

    @given(unambiguous_causal_traces())
    def test_projection_equals_checked_trace(self, trace):
        # project_trace skips the range check that the run already made
        projected = project_trace(loads_run_jsonl(dumps_jsonl(trace)))
        assert projected == Trace(projected.events, projected.params) == trace
