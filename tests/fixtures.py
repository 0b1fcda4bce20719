"""Miniature memory systems used to exercise the assumption validator."""
from scmc.errors import ParameterError
from scmc.events import READ, WRITE, MemoryEvent
from scmc.protocol import MemorySystem


class SerialMemory(MemorySystem):
    """Flat shared memory: every processor reads and writes one word per location.

    A read returns the location's current word and a write of any of 0..v
    replaces it, so every run is its own serialization: a known
    sequentially consistent subject, symmetric in processors and locations.
    State is the memory word per location.
    """

    internal_events: dict = {}

    def __init__(self, n: int = 2, m: int = 2, v: int = 2):
        if min(n, m, v) < 1:
            raise ParameterError("n, m, v must all be >= 1")
        self.n, self.m, self.v = n, m, v

    def writers(self):
        return range(1, self.n + 1)

    def initial_states(self):
        return ((0,) * self.m,)

    def successors(self, state):
        out = []
        for i in range(1, self.n + 1):
            for j in range(1, self.m + 1):
                out.append((MemoryEvent(READ, i, j, state[j - 1]), state))
        for i in self.writers():
            for j in range(1, self.m + 1):
                for d in range(self.v + 1):
                    out.append(
                        (MemoryEvent(WRITE, i, j, d), state[: j - 1] + (d,) + state[j:])
                    )
        return tuple(out)

    def permute_state(self, state, kind, perm):
        if kind == "proc":
            return state
        if kind == "loc":
            out = [0] * self.m
            for j in range(1, self.m + 1):
                out[perm[j - 1] - 1] = state[j - 1]
            return tuple(out)
        raise ParameterError(f"unknown permutation kind {kind!r}")


class PrivilegedWriterProtocol(SerialMemory):
    """Flat shared memory where only processor 1 may write.

    Deliberately breaks processor symmetry (a run containing a write cannot
    be replayed after a processor permutation moves it off processor 1)
    while keeping causality intact.
    """

    def writers(self):
        return (1,)


class HallucinatingReadProtocol(MemorySystem):
    """Stateless system whose reads may return 1 although nothing writes.

    Deliberately breaks causality; fully symmetric in both processors and
    locations.
    """

    internal_events: dict = {}

    def __init__(self, n: int = 1, m: int = 1, v: int = 2):
        if min(n, m, v) < 1:
            raise ParameterError("n, m, v must all be >= 1")
        self.n, self.m, self.v = n, m, v

    def initial_states(self):
        return ((),)

    def successors(self, state):
        out = []
        for i in range(1, self.n + 1):
            for j in range(1, self.m + 1):
                for d in (0, 1):
                    out.append((MemoryEvent(READ, i, j, d), state))
        return tuple(out)

    def permute_state(self, state, kind, perm):
        return state
