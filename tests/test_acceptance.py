"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion lines;
add -s to also see the measured numbers each criterion prints.
"""
import json
import random
import time

import pytest

from scmc import (
    CheckAutomaton,
    ConstrainAutomaton,
    InternalEvent,
    MemoryEvent,
    Params,
    READ,
    Run,
    Trace,
    WRITE,
    accepts,
    check_sc_oracle,
    extract_cycle,
    find_cycle,
    find_nice_cycle,
    build_constraint_graph,
    make_protocol,
    project_trace,
    replay,
    validate_assumptions,
    verify_nice_cycle,
)
from scmc.cli import EXIT_OK, EXIT_VIOLATION, main

from corpus import all_traces
from fixtures import PrivilegedWriterProtocol
from reference_trace import expanded_order, permute_locs, permute_procs, positions

W = lambda i, j, d: MemoryEvent(WRITE, i, j, d)
R = lambda i, j, d: MemoryEvent(READ, i, j, d)
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
TRACE3 = Trace((W(1, 1, 1), R(2, 1, 0), R(2, 1, 1)), Params(2, 1, 1))


@pytest.fixture(scope="module")
def corpus():
    return all_traces()


def program_order(trace: Trace, proc: int) -> frozenset:
    idxs = [x for x in range(1, len(trace) + 1) if trace.events[x - 1].proc == proc]
    return frozenset((x, y) for x in idxs for y in idxs if x < y)


def report(line: str) -> None:
    print(line)


def test_criterion_1_bug_reproduction(capsys):
    t0 = time.monotonic()
    code = main(
        ["check", "--protocol", "piranha-buggy", "--n", "2", "--m", "2",
         "--k", "2", "--queue-bound", "3", "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_VIOLATION
    assert payload["verdicts"][0]["result"] == "counterexample"

    protocol = make_protocol("piranha-buggy", 2, 2, 3)
    initial = protocol.initial_state((1, 1))
    replay(protocol, RUN12, initial)  # the known 12-event run replays
    proj = project_trace(RUN12)
    for automaton in (
        ConstrainAutomaton(1, 2),
        ConstrainAutomaton(2, 2),
        CheckAutomaton(1, 2),
        CheckAutomaton(2, 2),
    ):
        assert accepts(proj, automaton)
    trace, cycle = extract_cycle(protocol, RUN12, initial, 2)
    assert cycle.canonical and cycle.k == 2
    assert verify_nice_cycle(build_constraint_graph(trace), cycle)
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    with capsys.disabled():
        report(
            f"criterion 1 PASS: buggy k=2 Q=3 counterexample in {elapsed:.1f}s; "
            "12-event run accepted by all four monitors; canonical 2-nice cycle verified"
        )


def test_criterion_2_correct_variant_verification(capsys):
    t0 = time.monotonic()
    code = main(
        ["check", "--protocol", "piranha", "--n", "2", "--m", "2",
         "--k", "all", "--queue-bound", "3", "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    elapsed = time.monotonic() - t0
    assert code == EXIT_OK
    results = {v["k"]: v for v in payload["verdicts"]}
    assert set(results) == {1, 2}
    assert all(v["result"] == "no_violation" for v in results.values())
    assert all(v["states"] < 5 * 10**7 for v in results.values())
    assert elapsed < 600
    with capsys.disabled():
        report(
            f"criterion 2 PASS: correct variant closed in {elapsed:.1f}s; "
            f"states k=1: {results[1]['states']}, k=2: {results[2]['states']} "
            "(both < 5e7)"
        )


def test_criterion_3_oracle_cross_validation(corpus, capsys):
    assert len(corpus) >= 10_000
    acyclic = violations = 0
    for trace in corpus:
        if find_cycle(build_constraint_graph(trace)) is None:
            acyclic += 1
            if check_sc_oracle(trace) is None:
                violations += 1
    assert violations == 0
    with capsys.disabled():
        report(
            f"criterion 3 PASS: {len(corpus)} traces, {acyclic} acyclic, "
            "acyclic => oracle witness held with 0 violations"
        )


def test_criterion_4_cycle_reduction_equivalence(corpus, capsys):
    cyclic = 0
    for trace in corpus:
        graph = build_constraint_graph(trace)
        has_cycle = find_cycle(graph) is not None
        k_max = min(trace.params.n, trace.params.m)
        has_nice = any(
            find_nice_cycle(graph, k) is not None for k in range(1, k_max + 1)
        )
        assert has_cycle == has_nice
        cyclic += has_cycle
    with capsys.disabled():
        report(
            f"criterion 4 PASS: find_cycle <=> k-nice cycle agreed on all "
            f"{len(corpus)} traces ({cyclic} cyclic)"
        )


def test_criterion_5_partial_order_properties(corpus, capsys):
    pair_sets = 0
    for trace in corpus:
        for j in range(1, trace.params.m + 1):
            pairs = expanded_order(trace, j)
            members = positions(trace, loc=j)
            pair_sets += 1
            for x, y in pairs:
                assert x != y
                assert (y, x) not in pairs
            for x, y in pairs:
                for y2, z in pairs:
                    if y2 == y:
                        assert (x, z) in pairs
            for r, s in pairs:
                for t in members:
                    if t != r and t != s:
                        assert (r, t) in pairs or (t, s) in pairs
    with capsys.disabled():
        report(
            f"criterion 5 PASS: irreflexive/antisymmetric/transitive and almost-total "
            f"held for {pair_sets} expanded orders over {len(corpus)} traces"
        )


def test_criterion_6_symmetry_properties(corpus, capsys):
    rng = random.Random(20250814)
    eligible = [t for t in corpus if len(t) > 0]
    checked = {"proc": 0, "loc": 0}
    while checked["proc"] < 100 or checked["loc"] < 100:
        trace = eligible[rng.randrange(len(eligible))]
        n, m = trace.params.n, trace.params.m
        if checked["proc"] < 100:
            perm = tuple(rng.sample(range(1, n + 1), n))
            image = permute_procs(trace, perm)
            for i in range(1, n + 1):
                assert program_order(trace, i) == program_order(image, perm[i - 1])
            for j in range(1, m + 1):
                assert expanded_order(trace, j) == expanded_order(image, j)
            checked["proc"] += 1
        if checked["loc"] < 100:
            perm = tuple(rng.sample(range(1, m + 1), m))
            image = permute_locs(trace, perm)
            for j in range(1, m + 1):
                assert expanded_order(trace, j) == expanded_order(image, perm[j - 1])
            for i in range(1, n + 1):
                assert program_order(trace, i) == program_order(image, i)
            checked["loc"] += 1
    with capsys.disabled():
        report(
            "criterion 6 PASS: program-order and expanded-order symmetry held on "
            "100 processor and 100 location (trace, permutation) pairs"
        )


def test_criterion_7_bounded_assumption_validation(capsys):
    clean = validate_assumptions(make_protocol("piranha", 2, 2), depth=6)
    assert clean.causality_violations == ()
    assert clean.symmetry_violations == ()
    flagged = validate_assumptions(PrivilegedWriterProtocol(), depth=4)
    assert len(flagged.symmetry_violations) >= 1
    with capsys.disabled():
        report(
            f"criterion 7 PASS: piranha depth 6 clean ({clean.nodes} nodes, "
            f"{clean.symmetry_checks} symmetry checks); asymmetric fixture flagged "
            f"{len(flagged.symmetry_violations)} symmetry violations"
        )


def test_criterion_8_monitor_state_bound(capsys):
    for k in (1, 2, 3):
        for j in range(1, 4):
            expect = 2 if j <= k else 1
            assert len(ConstrainAutomaton(j, k).states) == expect
        for i in range(1, k + 1):
            assert len(CheckAutomaton(i, k).states) == 3
    with capsys.disabled():
        report(
            "criterion 8 PASS: automaton state counts are exactly 2 (constrained "
            "location), 1 (other locations), 3 (check)"
        )


def test_criterion_9_worked_example(tmp_path, capsys):
    from scmc import dumps_jsonl

    path = tmp_path / "t3.jsonl"
    path.write_text(dumps_jsonl(TRACE3), encoding="utf-8")
    code = main(["oracle", str(path), "--format", "json"])
    oracle_payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert oracle_payload["witness"] == [2, 1, 3]
    code = main(["analyze", str(path), "--format", "json"])
    analyze_payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert analyze_payload["analysis"] == "acyclic"
    with capsys.disabled():
        report(
            "criterion 9 PASS: oracle witness (2, 1, 3) on the 3-event example; "
            "its constraint graph is acyclic"
        )
