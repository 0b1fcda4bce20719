"""A deliberately naive sequential-consistency oracle, the reference for
scmc.analysis.check_sc_oracle.

It scans every serial order of the events, a sequence of event indices,
in lexicographic order, and takes the first that keeps each processor's
program order and yields a serial trace.  That is the lexicographically
least serialization by definition, with no interleaving search or
memoization, so it is slow but can be checked by eye.  The witness is its
inverse, placing event u at position f(u).  It refuses traces longer than
PERMUTATION_BOUND events.
"""
from itertools import permutations

from scmc import OracleBoundError, SerialWitness, Trace, is_serial, respects_program_order

PERMUTATION_BOUND = 8


def permutation_oracle(trace: Trace):
    """The witness of the least serialization of trace, or None if it is not SC."""
    total = len(trace)
    if total > PERMUTATION_BOUND:
        raise OracleBoundError(total, PERMUTATION_BOUND)
    for order in permutations(range(1, total + 1)):
        f = [0] * total
        for p, u in enumerate(order, 1):
            f[u - 1] = p
        w = SerialWitness(f)
        if respects_program_order(trace, w.f) and is_serial(w.apply(trace)):
            return w
    return None
