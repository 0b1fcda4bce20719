"""Measure bare-protocol and monitor-product state spaces.

For each protocol variant and queue bound, explores the protocol alone and
then the product with the cycle monitors for every k, printing states,
transitions, wall time and the peak RSS of this process so far (`peak MB`,
from getrusage; it only grows, so a row's figure is the largest of its run
and the rows above it).  The buggy variant's bare space explodes past
queue bound 1 (the leaked owner field lets acknowledgment traffic multiply),
so bare exploration is capped; products stay small because the constraint
automata block almost all writes.
"""
import argparse
import resource
import time

from scmc import DEFAULT_MAX_STATES, explore_protocol, make_protocol, model_check
from scmc.errors import ParameterError


def fmt(n) -> str:
    return f"{n:,}" if isinstance(n, int) else str(n)


def peak_mb() -> str:
    """Peak RSS of this process so far; ru_maxrss is in KiB on Linux."""
    return f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:>8.1f}"


def measure(args) -> None:
    header = (
        f"{'protocol':<14} {'Q':>2} {'space':<10} {'result':<15} "
        f"{'states':>12} {'transitions':>13} {'depth':>6} {'time':>8} {'peak MB':>8}"
    )
    print(header)
    print("-" * len(header))
    for name in args.protocols:
        for q in args.queue_bounds:
            protocol = make_protocol(name, args.n, args.m, q)
            t0 = time.monotonic()
            try:
                states, transitions = explore_protocol(
                    protocol, max_states=args.bare_cap
                )
                row = (fmt(states), fmt(transitions))
            except ParameterError:
                row = (f">{fmt(args.bare_cap)}", "-")
            print(
                f"{name:<14} {q:>2} {'bare':<10} {'-':<15} "
                f"{row[0]:>12} {row[1]:>13} {'-':>6} {time.monotonic() - t0:>7.1f}s {peak_mb()}"
            )
            for k in range(1, min(args.n, args.m) + 1):
                t0 = time.monotonic()
                v = model_check(protocol, k, max_states=args.max_states)
                print(
                    f"{name:<14} {q:>2} {f'product k={k}':<10} {v.result:<15} "
                    f"{fmt(v.states):>12} {fmt(v.transitions):>13} "
                    f"{v.max_depth:>6} {time.monotonic() - t0:>7.1f}s {peak_mb()}"
                )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument(
        "--protocols",
        nargs="+",
        default=["piranha", "piranha-buggy"],
        choices=["piranha", "piranha-buggy"],
    )
    parser.add_argument(
        "--queue-bounds", type=int, nargs="+", default=[1, 2, 3], metavar="Q"
    )
    parser.add_argument(
        "--bare-cap",
        type=int,
        default=1_000_000,
        help="abort bare exploration past this many states",
    )
    parser.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    measure(parser.parse_args())


if __name__ == "__main__":
    main()
