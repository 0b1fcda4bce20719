"""Miniature memory systems used to exercise the assumption validator."""
from scmc.errors import ParameterError
from scmc.events import READ, WRITE, InternalEvent, MemoryEvent
from scmc.protocol import MemorySystem, PiranhaProtocol


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


class LostWriteProtocol(SerialMemory):
    """Flat shared memory where a write of 2 leaves memory unchanged.

    Deliberately data dependent: which write a read sees depends on the
    values written, so renaming the written values changes the reads.
    """

    def successors(self, state):
        return tuple(
            (e, state if e.op == WRITE and e.data == 2 else nxt)
            for e, nxt in super().successors(state)
        )


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


class _FilteredPiranha(PiranhaProtocol):
    """Piranha 2x2 with queue bound 3, less one event in some states.

    `successors`, the relation model_check searches, leaves out every pair
    whose event `drops` names.  `step` keeps Piranha's own guards, as a
    second copy of the guards can drift from `successors`, so replaying a
    run through `step` cannot see the asymmetry.  Each subclass breaks
    symmetry only in states a few events deep.
    """

    def __init__(self):
        super().__init__(2, 2, queue_bound=3)

    def drops(self, state, e) -> bool:
        raise NotImplementedError

    def successors(self, state):
        return tuple(pair for pair in super().successors(state) if not self.drops(state, pair[0]))


class FullQueueStallsProtocol(_FilteredPiranha):
    """UPD(2) is disabled while processor 2's queue is full."""

    def drops(self, state, e):
        queue = self.view(state).inq[1]
        return e == InternalEvent("UPD", (2,)) and len(queue) == self.queue_bound


class OwnerBlocksGrantProtocol(_FilteredPiranha):
    """ACKX(2, 2) is disabled while processor 1 owns location 1."""

    def drops(self, state, e):
        return e == InternalEvent("ACKX", (2, 2)) and self.view(state).owner[0] == 1


class CopyBlocksWriteProtocol(_FilteredPiranha):
    """W(2, 2, 2) is disabled while processor 1's copy of location 1 holds 2."""

    def drops(self, state, e):
        return e == MemoryEvent(WRITE, 2, 2, 2) and self.view(state).cache[0][0][0] == 2


class PartialOwnersProtocol(PiranhaProtocol):
    """Piranha 2x2 with queue bound 3 whose only initial owner vectors are
    (1, 1) and (1, 2), a set neither swap maps onto itself."""

    def __init__(self):
        super().__init__(2, 2, queue_bound=3)

    def initial_states(self):
        return (self.initial_state((1, 1)), self.initial_state((1, 2)))
