"""Walk through a consistency violation end to end.

Model-checks a protocol at one cycle size, then replays the counterexample
run event by event showing every monitor's phase, prints the fresh-value
trace of the run, and lists the edges of the extracted canonical nice cycle
as they appear in the trace's constraint graph.
"""
import argparse
import sys

from scmc import (
    CheckAutomaton,
    ConstrainAutomaton,
    MemoryEvent,
    build_constraint_graph,
    make_protocol,
    model_check,
)
from scmc.cli import format_event


def show(args) -> int:
    protocol = make_protocol(args.protocol, args.n, args.m, args.queue_bound)
    verdict = model_check(protocol, args.k, max_states=args.max_states)
    print(
        f"{args.protocol} n={args.n} m={args.m} Q={args.queue_bound} k={args.k}: "
        f"{verdict.result} ({verdict.states:,} states, depth {verdict.max_depth})"
    )
    if verdict.result != "counterexample":
        return 0 if verdict.result == "no_violation" else 2

    automata = [ConstrainAutomaton(j, args.k) for j in range(1, args.m + 1)]
    automata += [CheckAutomaton(i, args.k) for i in range(1, args.k + 1)]
    phases = [a.initial() for a in automata]

    print(f"\ninitial owners: {protocol.view(verdict.initial_state).owner}")
    print(f"run ({len(verdict.run)} events):")
    labels = [f"Constrain({j})" for j in range(1, args.m + 1)]
    labels += [f"Check({i})" for i in range(1, args.k + 1)]
    print(f"  {'event':<14} " + " ".join(f"{l:<13}" for l in labels))
    for e in verdict.run.events:
        if isinstance(e, MemoryEvent):
            phases = [a.step(p, e) for a, p in zip(automata, phases)]
        print(f"  {format_event(e):<14} " + " ".join(f"{p:<13}" for p in phases))

    print("\nfresh-value trace of the run:")
    print("  " + " ".join(format_event(e) for e in verdict.trace.events))

    cycle = verdict.cycle
    print(
        f"\ncanonical {cycle.k}-nice cycle: vertices {cycle.vertices}, "
        f"procs {cycle.procs}, locs {cycle.locs}"
    )
    graph = build_constraint_graph(verdict.trace)
    verts = cycle.vertices
    for x in range(cycle.k):
        u, v = verts[2 * x], verts[2 * x + 1]
        u_next = verts[(2 * x + 2) % len(verts)]
        print(
            f"  {u} -> {v}: processor {graph.proc_edge_label(u, v)} program order; "
            f"{v} -> {u_next}: location {graph.loc_edge_label(v, u_next)} write order"
        )
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--protocol", default="piranha-buggy",
                        choices=["piranha", "piranha-buggy"])
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--queue-bound", type=int, default=3)
    parser.add_argument("--max-states", type=int, default=10_000_000)
    return show(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
