"""Classic litmus outcomes, with their SC answers from the literature.

Each case is one outcome of a litmus test written as an unambiguous trace:
location 1 is x and location 2 is y, every write stores a fresh nonzero
value, and the trace order of a location's writes is its coherence order.
The answers do not come from scmc: an outcome is SC or not as Adve &
Gharachorloo, "Shared memory consistency models: a tutorial" (IEEE
Computer 1996), and Alglave, Maranget & Tautschnig, "Herding cats" (TOPLAS
2014), give it.  The oracle, `find_cycle` and the least nice k must all
agree with that answer.
"""
import pytest

from scmc import (
    MemoryEvent,
    Params,
    Trace,
    build_constraint_graph,
    check_sc_oracle,
    find_cycle,
    find_minimal_nice_cycle,
    is_serial,
    respects_program_order,
    verify_nice_cycle,
)

W = lambda p, l, d: MemoryEvent("W", p, l, d)
R = lambda p, l, d: MemoryEvent("R", p, l, d)

# name -> (trace, SC, least nice k; None: the graph is acyclic)
LITMUS = {
    # store buffering: each processor writes its location, then reads the
    # other's old value
    "SB": (
        Trace((W(1, 1, 1), R(1, 2, 0), W(2, 2, 1), R(2, 1, 0)), Params(2, 2, 1)),
        False,
        2,
    ),
    # message passing: the flag y is seen set, the data x still old
    "MP": (
        Trace((W(1, 1, 1), W(1, 2, 1), R(2, 2, 1), R(2, 1, 0)), Params(2, 2, 1)),
        False,
        2,
    ),
    # load buffering: each read sees the write that follows the other read
    "LB": (
        Trace((R(1, 1, 1), W(1, 2, 1), R(2, 2, 1), W(2, 1, 1)), Params(2, 2, 1)),
        False,
        2,
    ),
    # independent reads of independent writes: the readers disagree on the
    # order of the two writes
    "IRIW": (
        Trace(
            (W(1, 1, 1), W(2, 2, 1), R(3, 1, 1), R(3, 2, 0), R(4, 2, 1), R(4, 1, 0)),
            Params(4, 2, 1),
        ),
        False,
        2,
    ),
    # write-to-read causality: processor 2 forwards what it read of x
    # through y, and processor 3 sees y but not x
    "WRC": (
        Trace(
            (W(1, 1, 1), R(2, 1, 1), W(2, 2, 1), R(3, 2, 1), R(3, 1, 0)),
            Params(3, 2, 1),
        ),
        False,
        2,
    ),
    # read-read coherence: a later read of x returns an older value
    "CoRR": (
        Trace((W(1, 1, 1), R(2, 1, 1), R(2, 1, 0)), Params(2, 1, 1)),
        False,
        1,
    ),
    # two writes on each processor, each location ending with the first
    # processor's value, as each processor's closing read observes: under
    # any trace order of the writes, one closing read returns a value older
    # than its own processor's write
    "2+2W": (
        Trace(
            (W(1, 1, 1), W(1, 2, 2), W(2, 2, 1), W(2, 1, 2), R(1, 2, 1), R(2, 1, 1)),
            Params(2, 2, 2),
        ),
        False,
        1,
    ),
    # the outcomes of SB and MP that SC allows
    "SB, one read new": (
        Trace((W(1, 1, 1), R(1, 2, 0), W(2, 2, 1), R(2, 1, 1)), Params(2, 2, 1)),
        True,
        None,
    ),
    "SB, both reads new": (
        Trace((W(1, 1, 1), W(2, 2, 1), R(1, 2, 1), R(2, 1, 1)), Params(2, 2, 1)),
        True,
        None,
    ),
    "MP, both reads old": (
        Trace((W(1, 1, 1), W(1, 2, 1), R(2, 2, 0), R(2, 1, 0)), Params(2, 2, 1)),
        True,
        None,
    ),
    "MP, flag old and data new": (
        Trace((W(1, 1, 1), W(1, 2, 1), R(2, 2, 0), R(2, 1, 1)), Params(2, 2, 1)),
        True,
        None,
    ),
    "MP, both reads new": (
        Trace((W(1, 1, 1), W(1, 2, 1), R(2, 2, 1), R(2, 1, 1)), Params(2, 2, 1)),
        True,
        None,
    ),
}


@pytest.mark.parametrize("name", LITMUS)
def test_literature_answer(name):
    trace, sc, k = LITMUS[name]
    witness = check_sc_oracle(trace)
    assert (witness is not None) == sc
    if witness is not None:
        assert respects_program_order(trace, witness.f)
        assert is_serial(witness.apply(trace))
    graph = build_constraint_graph(trace)
    assert (find_cycle(graph) is None) == sc
    cycle = find_minimal_nice_cycle(graph)
    assert (None if cycle is None else cycle.k) == k
    if cycle is not None:
        assert verify_nice_cycle(graph, cycle)


def test_sc_trace_cyclic_under_the_simple_write_order():
    # SC, as the serialization W(1,1,2) R(1,1,2) W(2,1,1) R(1,1,1) shows,
    # but its constraint graph orders the writes by trace position, which
    # puts the write of 1 first and gives a 1-nice cycle.  `analyze` now
    # reports this trace as a violation; once counterexamples are
    # confirmed by the oracle (ROADMAP item 9) that verdict changes.
    trace = Trace((W(2, 1, 1), W(1, 1, 2), R(1, 1, 2), R(1, 1, 1)), Params(2, 1, 2))
    assert check_sc_oracle(trace).f == (3, 1, 2, 4)
    graph = build_constraint_graph(trace)
    assert find_cycle(graph) is not None
    cycle = find_minimal_nice_cycle(graph)
    assert cycle.k == 1 and verify_nice_cycle(graph, cycle)
