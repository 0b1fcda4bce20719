"""A deliberately naive sequential-consistency oracle, the reference for
scmc.analysis.check_sc_oracle.

It scans every permutation of the events in lexicographic order and
returns the first that keeps each processor's program order and yields a
serial trace.  That is the lexicographically least witness by definition,
with no interleaving search or memoization, so it is slow but can be
checked by eye.  It refuses traces longer than PERMUTATION_BOUND events.
"""
from itertools import permutations

from scmc import OracleBoundError, SerialWitness, Trace, is_serial, respects_program_order

PERMUTATION_BOUND = 8


def permutation_oracle(trace: Trace):
    """The least serial witness of trace, or None if it is not SC."""
    total = len(trace)
    if total > PERMUTATION_BOUND:
        raise OracleBoundError(total, PERMUTATION_BOUND)
    for f in permutations(range(1, total + 1)):
        if respects_program_order(trace, f) and is_serial(SerialWitness(f).apply(trace)):
            return SerialWitness(f)
    return None
