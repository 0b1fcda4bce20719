"""Times scaled to a reference CPU speed.

The shared hosts this benchmark runs on change speed by up to 1.6x every few
seconds, and a process's CPU time changes with them, so neither wall nor CPU
time repeats well between runs.  A fixed reference kernel (an integer loop,
then breadth-first searches over small tuples) is run between chunks of
measured operations.  Each operation's wall time is multiplied by
REFERENCE_S over the mean of the kernel times just before and just after its
chunk: the result is the time the operation would take at the speed where the
kernel takes REFERENCE_S.  The kernel never calls scmc, so a change to scmc
moves the scaled times as it moves wall time.

The kernel stays in the CPU caches.  Operations that do too (oracle-short,
analyze-long) follow its speed closely; the large visited sets of the check
workloads follow it about half as much, so their scaled times keep part of
the host's noise.
"""
from __future__ import annotations

from collections import deque
from time import perf_counter

# About the kernel's median time on a 2.1 GHz Xeon vCPU under CPython 3.11:
# a constant, chosen so that scaled times keep the size of seconds.
REFERENCE_S = 0.02
# Operations are grouped into chunks of about this much wall time between
# two kernel runs; an operation longer than that is a chunk of its own.
CHUNK_S = 0.3
_LOOP_ITERATIONS = 120_000
_SEARCH_SIZE, _SEARCHES = 6, 6


def kernel() -> int:
    """An integer loop, then breadth-first searches over small tuples."""
    total = 0
    for i in range(_LOOP_ITERATIONS):
        total += i * i
    size = _SEARCH_SIZE

    def succ(s):
        a, b, c, d = s
        out = [(b, a, d, c)]
        if a < size:
            out.append((a + 1, b, c, d))
        if b < size:
            out.append((a, b + 1, c, d))
        if c < a:
            out.append((a, b, c + 1, d))
        if d < b:
            out.append((a, b, c, d + 1))
        return out

    for _ in range(_SEARCHES):
        seen = {(0, 0, 0, 0)}
        frontier = deque(seen)
        while frontier:
            for t in succ(frontier.popleft()):
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        total += len(seen)
    return total


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class RefClock:
    """Collects raw wall times and hands them back scaled, chunk by chunk."""

    def __init__(self) -> None:
        self.last_kernel = time_kernel()
        self.pending: list[tuple[object, float]] = []
        self.pending_s = 0.0
        self.raw_s = 0.0  # wall time of the operations released so far
        self.kernel_samples: list[float] = [self.last_kernel]

    def add(self, key, seconds: float) -> list[tuple[object, float]]:
        """Record a raw time; returns the (key, scaled time) pairs released."""
        self.pending.append((key, seconds))
        self.pending_s += seconds
        return self.flush() if self.pending_s >= CHUNK_S else []

    def flush(self) -> list[tuple[object, float]]:
        """Close the chunk with a kernel run and release its scaled times."""
        if not self.pending:
            return []
        after = time_kernel()
        self.kernel_samples.append(after)
        scale = REFERENCE_S / ((self.last_kernel + after) / 2)
        self.last_kernel = after
        out = [(key, t * scale) for key, t in self.pending]
        self.raw_s += self.pending_s
        self.pending, self.pending_s = [], 0.0
        return out
