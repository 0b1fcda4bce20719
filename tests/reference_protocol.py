"""Piranha's transition relation on readable states, for differential tests.

`ReferencePiranha.successors` is the relation written over `PiranhaState`
tuples, the way the protocol kept its states before they became packed
bytes: nested tuples rebuilt per successor, no offsets and no bytearray
edits.  `PiranhaProtocol.successors` on a packed state must give the same
events in the same order, with successors whose views are these states.
"""
from scmc.events import READ, WRITE, InternalEvent, MemoryEvent
from scmc.protocol import ACKS_MSG, ACKX_MSG, EXC, INV, INVAL_MSG, SHD, Msg, PiranhaState


def _set_entry(cache, i: int, j: int, entry):
    """cache with the entry of 0-based processor i and location j replaced."""
    row = cache[i]
    return cache[:i] + (row[:j] + (entry,) + row[j + 1 :],) + cache[i + 1 :]


class ReferencePiranha:
    def __init__(self, n: int, m: int, queue_bound: int, buggy: bool):
        self.n, self.m, self.queue_bound, self.buggy = n, m, queue_bound, buggy

    def _grants(self, state: PiranhaState):
        """The enabled ACKX and ACKS events as 0-based (i, j), ascending."""
        cache, owner, inq = state
        full = [len(queue) >= self.queue_bound for queue in inq]
        blocked = [
            not old
            or any(
                f and row[j][1] != INV and p != old
                for p, (f, row) in enumerate(zip(full, cache), 1)
            )
            for j, old in enumerate(owner)
        ]
        ackx, acks = [], []
        for i, row in enumerate(cache):
            if full[i]:
                continue
            for j, (_d, s) in enumerate(row):
                if s != EXC and not blocked[j]:
                    ackx.append((i, j))
                if s == INV and owner[j]:
                    acks.append((i, j))
        return ackx, acks

    def _do_ackx(self, state: PiranhaState, i: int, j: int) -> PiranhaState:
        cache, owner, inq = state
        old = owner[j] - 1
        data = cache[old][j][0]
        if old != i:
            cache = _set_entry(cache, old, j, (data, INV))
        owner = owner[:j] + (0,) + owner[j + 1 :]
        queues = list(inq)
        for p, row in enumerate(cache):
            if p == i:
                queues[p] += (Msg(ACKX_MSG, j + 1, data),)
            elif p != old and row[j][1] != INV:
                queues[p] += (Msg(INVAL_MSG, j + 1, None),)
        return PiranhaState(cache, owner, tuple(queues))

    def _do_acks(self, state: PiranhaState, i: int, j: int) -> PiranhaState:
        cache, owner, inq = state
        old = owner[j] - 1
        data = cache[old][j][0]
        cache = _set_entry(cache, old, j, (data, SHD))
        if not self.buggy:
            owner = owner[:j] + (0,) + owner[j + 1 :]
        inq = inq[:i] + (inq[i] + (Msg(ACKS_MSG, j + 1, data),),) + inq[i + 1 :]
        return PiranhaState(cache, owner, inq)

    def _do_upd(self, state: PiranhaState, i: int) -> PiranhaState:
        cache, owner, inq = state
        kind, a, data = inq[i][0]
        inq = inq[:i] + (inq[i][1:],) + inq[i + 1 :]
        a -= 1
        if kind == INVAL_MSG:
            cache = _set_entry(cache, i, a, (cache[i][a][0], INV))
        else:
            cache = _set_entry(cache, i, a, (data, SHD if kind == ACKS_MSG else EXC))
            owner = owner[:a] + (i + 1,) + owner[a + 1 :]
        return PiranhaState(cache, owner, inq)

    def successors(self, state: PiranhaState):
        """Reads, writes of 0..2, ACKX, ACKS, UPD, each ascending in
        (proc, loc, data); a read's successor is `state` itself."""
        out, writes = [], []
        for i, row in enumerate(state.cache):
            for j, (d, s) in enumerate(row):
                if s == INV:
                    continue
                out.append((MemoryEvent(READ, i + 1, j + 1, d), state))
                if s == EXC:
                    for d2 in range(3):
                        nxt = _set_entry(state.cache, i, j, (d2, EXC))
                        writes.append((MemoryEvent(WRITE, i + 1, j + 1, d2),
                                       state._replace(cache=nxt)))
        out += writes
        ackx, acks = self._grants(state)
        out += [(InternalEvent("ACKX", (i + 1, j + 1)), self._do_ackx(state, i, j))
                for i, j in ackx]
        out += [(InternalEvent("ACKS", (i + 1, j + 1)), self._do_acks(state, i, j))
                for i, j in acks]
        out += [(InternalEvent("UPD", (i + 1,)), self._do_upd(state, i))
                for i, queue in enumerate(state.inq) if queue]
        return tuple(out)
