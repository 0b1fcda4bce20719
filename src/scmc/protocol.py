"""Finite cache-coherence protocols as explicit-state transition systems.

A MemorySystem exposes initial states and one transition relation over
immutable states, `successors`: the enabled events of a state, each with its
unique successor.  The shipped protocol is a directory-less invalidation
protocol in the style of Piranha's L2: each processor holds a cache line per
location in state INV, SHD or EXC, requests travel through per-processor
FIFO queues as ACKS/ACKX/INVAL messages, and a per-location owner variable
serializes requests (owner 0 means a request is in flight).  The buggy
variant omits the owner reset in the shared-access grant, which lets a
second grant race the first one's acknowledgment.

Queues are bounded by guard strengthening: an event whose body would append
to a full queue is disabled, never an error.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial
from itertools import product
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import (
    DataIndependenceError,
    DisabledEventError,
    ParameterError,
    ReplayError,
)
from .events import (
    READ,
    WRITE,
    Event,
    InternalEvent,
    MemoryEvent,
    Params,
    Run,
    Trace,
)

INV, SHD, EXC = 0, 1, 2
STATUS_NAMES = ("INV", "SHD", "EXC")

ACKS_MSG, ACKX_MSG, INVAL_MSG = 0, 1, 2
MSG_NAMES = ("ACKS", "ACKX", "INVAL")

DEFAULT_QUEUE_BOUND = 3
MAX_PROCS_LOCS = 255  # the largest n and m that encode_state can pack


class Msg(NamedTuple):
    """A queued coherence message; data is None exactly for INVAL."""

    kind: int
    addr: int
    data: Optional[int] = None


class PiranhaState(NamedTuple):
    """cache[i-1][j-1] is a (data, status) pair; owner[j-1] is 0 or a processor."""

    cache: tuple[tuple[tuple[int, int], ...], ...]
    owner: tuple[int, ...]
    inq: tuple[tuple[Msg, ...], ...]


class MemorySystem(ABC):
    """A finite transition system over the shared event alphabet.

    A system gives its initial states and `successors`, the transition
    relation: the enabled events of a state, each with its successor.
    `step` derives from it, and a system may override `step` with a direct
    guard check.  States must be hashable.
    Searches keep the key encode_state(s) and rebuild s with decode_state,
    so decode_state(encode_state(s)) must equal s.  The base-class key is
    the state itself; a system may override both methods to pack its
    states, as PiranhaProtocol does to save memory.
    """

    n: int
    m: int
    v: int
    internal_events: Mapping[str, tuple[str, ...]] = {}

    @abstractmethod
    def initial_states(self) -> tuple:
        ...

    @abstractmethod
    def successors(self, state) -> tuple[tuple[Event, object], ...]:
        """The enabled events of `state` with their successor states."""

    def step(self, state, event):
        """The successor under `event`; DisabledEventError if its guard fails."""
        for e, nxt in self.successors(state):
            if e == event:
                return nxt
        raise DisabledEventError(f"{event!r} is not enabled")

    def encode_state(self, state):
        return state

    def decode_state(self, key):
        return key

    def permute_state(self, state, kind: str, perm: Sequence[int]):
        raise NotImplementedError(f"{type(self).__name__} does not support symmetry")


# a PiranhaState built without the Python-level NamedTuple constructor
_new_state = partial(tuple.__new__, PiranhaState)


def _set_entry(cache, i: int, j: int, entry):
    """cache with the entry of 0-based processor i and location j replaced."""
    row = cache[i]
    return cache[:i] + (row[:j] + (entry,) + row[j + 1 :],) + cache[i + 1 :]


class _Memo(dict):
    """A dict that fills a missing key with fill(key)."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _pack_row(row) -> bytes:
    return bytes([x for entry in row for x in entry])


def _pack_queue(queue) -> bytes:
    out = [len(queue)]
    for kind, addr, data in queue:
        out += (kind, addr, 0 if data is None else data)
    return bytes(out)


def _unpack_queue(key: bytes) -> tuple[Msg, ...]:
    queue = []
    for pos in range(1, 1 + 3 * key[0], 3):
        kind, addr, data = key[pos], key[pos + 1], key[pos + 2]
        queue.append(Msg(kind, addr, None if kind == INVAL_MSG else data))
    return tuple(queue)


class PiranhaProtocol(MemorySystem):
    internal_events = {"ACKX": ("proc", "loc"), "ACKS": ("proc", "loc"), "UPD": ("proc",)}
    v = 2  # the data domain {0, 1, 2} that the monitors need

    def __init__(
        self, n: int, m: int, *, queue_bound: int = DEFAULT_QUEUE_BOUND, buggy: bool = False
    ):
        Params(n, m, self.v)  # range validation
        # before any table is built: a run's header may declare any n and m
        for name, value in (("n", n), ("m", m)):
            if value > MAX_PROCS_LOCS:
                raise ParameterError(
                    f"{name} must be at most {MAX_PROCS_LOCS}, got {value}: packed states"
                    " keep processor ids and locations in one byte each"
                )
        if queue_bound < 1:
            raise ParameterError(f"queue_bound must be >= 1, got {queue_bound}")
        self.n, self.m = n, m
        self.queue_bound = queue_bound
        self.buggy = buggy
        # Events and messages are built once here; the tables are indexed by
        # 0-based processor and location, and reads and writes by data too.
        procs, locs, data = range(1, n + 1), range(1, m + 1), range(self.v + 1)
        self._reads = tuple(
            tuple(tuple(MemoryEvent(READ, i, j, d) for d in data) for j in locs) for i in procs
        )
        self._writes = tuple(
            tuple(tuple((MemoryEvent(WRITE, i, j, d), (d, EXC)) for d in data) for j in locs)
            for i in procs
        )
        self._ackx = tuple(tuple(InternalEvent("ACKX", (i, j)) for j in locs) for i in procs)
        self._acks = tuple(tuple(InternalEvent("ACKS", (i, j)) for j in locs) for i in procs)
        self._upd = tuple(InternalEvent("UPD", (i,)) for i in procs)
        self._msgs = _Memo(lambda key: Msg(*key))  # (kind, addr, data) -> Msg
        # encode_state and decode_state translate rows and queues through these
        self._row_keys = _Memo(_pack_row)
        self._queue_keys = _Memo(_pack_queue)
        self._rows = _Memo(lambda key: tuple((key[2 * j], key[2 * j + 1]) for j in range(m)))
        self._queues = _Memo(_unpack_queue)
        # the last state decode_state built, with its key: a read's successor
        # is that very object, so encoding it needs no work
        self._decoded: tuple = (None, b"")

    # -- states -------------------------------------------------------------

    def initial_state(self, owner: Sequence[int]) -> PiranhaState:
        owner = tuple(owner)
        if len(owner) != self.m or not all(1 <= o <= self.n for o in owner):
            raise ParameterError(
                f"owner vector must assign each of {self.m} locations a processor 1..{self.n}"
            )
        row = ((0, SHD),) * self.m
        return PiranhaState((row,) * self.n, owner, ((),) * self.n)

    def initial_states(self) -> tuple[PiranhaState, ...]:
        return tuple(
            self.initial_state(owner)
            for owner in product(range(1, self.n + 1), repeat=self.m)
        )

    # -- guards -------------------------------------------------------------

    def _grants(self, state: PiranhaState) -> tuple[list, list]:
        """The enabled ACKX and the enabled ACKS events, as 0-based (i, j)
        pairs ascending in (i, j).

        Both need owner[j] != 0 and room in the requester's queue.  ACKX(i, j)
        also needs i not EXC and room in the queue of every other sharer of j
        except the old owner, which is invalidated directly; ACKS(i, j) needs
        i INV.
        """
        cache, owner, inq = state
        bound = self.queue_bound
        full = [len(queue) >= bound for queue in inq]
        # ACKX at j is blocked when j has no owner, or when a sharer of j
        # other than the old owner has a full queue
        if True in full:
            blocked = [
                not old
                or any(
                    f and row[j][1] != INV and p != old
                    for p, (f, row) in enumerate(zip(full, cache), 1)
                )
                for j, old in enumerate(owner)
            ]
        else:
            blocked = [not old for old in owner]
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

    # -- bodies (0-based processor and location) -----------------------------

    def _do_ackx(self, state: PiranhaState, i: int, j: int) -> PiranhaState:
        cache, owner, inq = state
        old = owner[j] - 1
        # capture the old owner's data before zeroing; zeroing first would
        # leave nothing to read the reply data from
        data = cache[old][j][0]
        if old != i:
            cache = _set_entry(cache, old, j, (data, INV))
        owner = owner[:j] + (0,) + owner[j + 1 :]
        reply = self._msgs[ACKX_MSG, j + 1, data]
        inval = self._msgs[INVAL_MSG, j + 1, None]
        queues = list(inq)
        for p, row in enumerate(cache):
            if p == i:
                queues[p] += (reply,)
            elif p != old and row[j][1] != INV:
                queues[p] += (inval,)
        return _new_state((cache, owner, tuple(queues)))

    def _do_acks(self, state: PiranhaState, i: int, j: int) -> PiranhaState:
        cache, owner, inq = state
        old = owner[j] - 1
        data = cache[old][j][0]
        cache = _set_entry(cache, old, j, (data, SHD))
        if not self.buggy:
            owner = owner[:j] + (0,) + owner[j + 1 :]  # the bug: this reset is skipped
        inq = inq[:i] + (inq[i] + (self._msgs[ACKS_MSG, j + 1, data],),) + inq[i + 1 :]
        return _new_state((cache, owner, inq))

    def _do_upd(self, state: PiranhaState, i: int) -> PiranhaState:
        cache, owner, inq = state
        queue = inq[i]
        kind, a, data = queue[0]
        inq = inq[:i] + (queue[1:],) + inq[i + 1 :]
        a -= 1
        if kind == INVAL_MSG:
            cache = _set_entry(cache, i, a, (cache[i][a][0], INV))
        else:
            cache = _set_entry(cache, i, a, (data, SHD if kind == ACKS_MSG else EXC))
            owner = owner[:a] + (i + 1,) + owner[a + 1 :]
        return _new_state((cache, owner, inq))

    # -- transition relation --------------------------------------------------

    def step(self, state: PiranhaState, event: Event):
        if isinstance(event, MemoryEvent):
            i, j = event.proc, event.loc
            if not (1 <= i <= self.n and 1 <= j <= self.m and event.data >= 0):
                raise ParameterError(f"event out of range: {event!r}")
            d, s = state.cache[i - 1][j - 1]
            if event.op == READ:
                if s == INV or d != event.data:
                    raise DisabledEventError(f"{event!r}: cache holds ({d}, {STATUS_NAMES[s]})")
                return state
            if event.op != WRITE:
                raise ParameterError(f"bad op in {event!r}")
            if s != EXC:
                raise DisabledEventError(f"{event!r}: line not exclusive")
            return _new_state(
                (_set_entry(state.cache, i - 1, j - 1, (event.data, EXC)), state.owner, state.inq)
            )
        if not isinstance(event, InternalEvent):
            raise ParameterError(f"not an event: {event!r}")
        label, params = event.label, event.params
        if label == "UPD":
            if len(params) != 1 or not 1 <= params[0] <= self.n:
                raise ParameterError(f"bad params in {event!r}")
            if not state.inq[params[0] - 1]:
                raise DisabledEventError(f"{event!r}: queue empty")
            return self._do_upd(state, params[0] - 1)
        if label in ("ACKX", "ACKS"):
            if len(params) != 2 or not (
                1 <= params[0] <= self.n and 1 <= params[1] <= self.m
            ):
                raise ParameterError(f"bad params in {event!r}")
            i, j = params[0] - 1, params[1] - 1
            ackx, acks = self._grants(state)
            if label == "ACKX":
                if (i, j) not in ackx:
                    raise DisabledEventError(f"{event!r}: guard false")
                return self._do_ackx(state, i, j)
            if (i, j) not in acks:
                raise DisabledEventError(f"{event!r}: guard false")
            return self._do_acks(state, i, j)
        raise ParameterError(f"unknown internal event label {label!r}")

    def successors(self, state: PiranhaState) -> tuple[tuple[Event, object], ...]:
        """Enabled events with their successor states, in a fixed order:
        reads, writes, ACKX, ACKS, UPD, each ascending in (proc, loc, data).
        A read's successor is `state` itself."""
        cache, owner, inq = state
        out: list[tuple[Event, object]] = []
        writes = []
        for i, row in enumerate(cache):
            reads = self._reads[i]
            for j, (d, s) in enumerate(row):
                if s == INV:
                    continue
                by_data = reads[j]
                # replays give writes fresh values, which may exceed v
                e = by_data[d] if d < len(by_data) else MemoryEvent(READ, i + 1, j + 1, d)
                out.append((e, state))
                if s == EXC:
                    head, tail = cache[:i], cache[i + 1 :]
                    left, right = row[:j], row[j + 1 :]
                    for e, entry in self._writes[i][j]:
                        writes.append(
                            (e, _new_state((head + (left + (entry,) + right,) + tail, owner, inq)))
                        )
        out += writes
        ackx, acks = self._grants(state)
        append = out.append
        for i, j in ackx:
            append((self._ackx[i][j], self._do_ackx(state, i, j)))
        for i, j in acks:
            append((self._acks[i][j], self._do_acks(state, i, j)))
        for i, queue in enumerate(inq):
            if queue:
                append((self._upd[i], self._do_upd(state, i)))
        return tuple(out)

    # -- misc ----------------------------------------------------------------

    def encode_state(self, state: PiranhaState) -> bytes:
        if state is self._decoded[0]:
            return self._decoded[1]
        cache, owner, inq = state
        return b"".join(
            [*map(self._row_keys.__getitem__, cache), bytes(owner),
             *map(self._queue_keys.__getitem__, inq)]
        )

    def decode_state(self, key: bytes) -> PiranhaState:
        """Inverse of encode_state; lets searches keep states as packed bytes."""
        n, m = self.n, self.m
        width = 2 * m
        rows, queues = self._rows, self._queues
        cache = tuple([rows[key[pos : pos + width]] for pos in range(0, n * width, width)])
        pos = n * width
        owner = tuple(key[pos : pos + m])
        pos += m
        inq = []
        for _ in range(n):
            end = pos + 1 + 3 * key[pos]
            inq.append(queues[key[pos:end]])
            pos = end
        if pos != len(key):
            raise ParameterError("malformed state key")
        state = _new_state((cache, owner, tuple(inq)))
        self._decoded = (state, key)
        return state

    def permute_state(self, state: PiranhaState, kind: str, perm: Sequence[int]):
        cache, owner, inq = state
        if kind == "proc":
            perm = check_permutation(perm, self.n)
            new_cache: list = [None] * self.n
            new_inq: list = [None] * self.n
            for i in range(1, self.n + 1):
                new_cache[perm[i - 1] - 1] = cache[i - 1]
                new_inq[perm[i - 1] - 1] = inq[i - 1]
            new_owner = tuple(0 if o == 0 else perm[o - 1] for o in owner)
            return PiranhaState(tuple(new_cache), new_owner, tuple(new_inq))
        if kind == "loc":
            perm = check_permutation(perm, self.m)
            new_cache = []
            for row in cache:
                new_row: list = [None] * self.m
                for j in range(1, self.m + 1):
                    new_row[perm[j - 1] - 1] = row[j - 1]
                new_cache.append(tuple(new_row))
            new_owner_list: list = [0] * self.m
            for j in range(1, self.m + 1):
                new_owner_list[perm[j - 1] - 1] = owner[j - 1]
            new_inq = tuple(
                tuple(Msg(msg.kind, perm[msg.addr - 1], msg.data) for msg in queue)
                for queue in inq
            )
            return PiranhaState(tuple(new_cache), tuple(new_owner_list), new_inq)
        raise ParameterError(f"kind must be 'proc' or 'loc', got {kind!r}")


PROTOCOL_NAMES = ("piranha", "piranha-buggy")


def make_protocol(
    name: str, n: int, m: int, queue_bound: int = DEFAULT_QUEUE_BOUND
) -> MemorySystem:
    if name == "piranha":
        return PiranhaProtocol(n, m, queue_bound=queue_bound)
    if name == "piranha-buggy":
        return PiranhaProtocol(n, m, queue_bound=queue_bound, buggy=True)
    raise ParameterError(f"unknown protocol {name!r} (expected one of {PROTOCOL_NAMES})")


def _check_compatible(protocol: MemorySystem, params: Params) -> None:
    if params.n != protocol.n or params.m != protocol.m or params.v > protocol.v:
        raise ParameterError(
            f"run parameters {params} incompatible with protocol "
            f"(n={protocol.n}, m={protocol.m}, v={protocol.v})"
        )


def replay(protocol: MemorySystem, run: Run, initial_state):
    """Execute the run from the given state; ReplayError names the bad event."""
    _check_compatible(protocol, run.params)
    state = initial_state
    for idx, e in enumerate(run.events, 1):
        try:
            state = protocol.step(state, e)
        except DisabledEventError as exc:
            raise ReplayError(idx, str(exc)) from None
    return state


def replay_unambiguous(protocol: MemorySystem, run: Run, initial_state) -> Trace:
    """Re-execute the run with globally fresh per-location write values.

    A shadow copy of the protocol follows the run's control path while every
    write carries the next unused value (1, 2, ... per location) and every
    read returns whatever the shadow state serves at that processor and
    location.  The result is an unambiguous trace whose renaming back to the
    original data values reproduces the run's memory projection; divergence
    between the two executions means the protocol is not data independent.
    The run is replayed first, so a run that does not replay raises
    ReplayError before the shadow pass starts.
    """
    replay(protocol, run, initial_state)
    shadow = initial_state
    next_tag: dict[int, int] = {}
    renamed: dict[tuple[int, int], int] = {}
    out: list[MemoryEvent] = []
    for idx, e in enumerate(run.events, 1):
        if not isinstance(e, MemoryEvent):
            sh = e
        elif e.op == WRITE:
            tag = next_tag.get(e.loc, 1)
            next_tag[e.loc] = tag + 1
            sh = MemoryEvent(WRITE, e.proc, e.loc, tag)
            renamed[(e.loc, tag)] = e.data
            out.append(sh)
        else:
            cands = [
                se
                for se, _ in protocol.successors(shadow)
                if isinstance(se, MemoryEvent)
                and se.op == READ
                and se.proc == e.proc
                and se.loc == e.loc
            ]
            if len(cands) != 1:
                raise DataIndependenceError(
                    f"event {idx}: shadow state enables {len(cands)} reads at "
                    f"(proc={e.proc}, loc={e.loc}), expected exactly one"
                )
            sh = cands[0]
            expected = 0 if sh.data == 0 else renamed.get((e.loc, sh.data))
            if expected != e.data:
                raise DataIndependenceError(
                    f"event {idx}: shadow read value {sh.data} renames to "
                    f"{expected}, run read {e.data}"
                )
            out.append(sh)
        try:
            shadow = protocol.step(shadow, sh)
        except DisabledEventError as exc:
            raise DataIndependenceError(f"event {idx}: shadow diverged: {exc}") from None
    v = max([1] + [tag - 1 for tag in next_tag.values()])
    return Trace(tuple(out), Params(protocol.n, protocol.m, v))


def check_permutation(perm: Sequence[int], size: int) -> tuple[int, ...]:
    """Validate that perm is a bijection on 1..size; returns it as a tuple.

    Entries must be ints, not bools or floats, as in the JSON Lines reader.
    """
    perm = tuple(perm)
    if not all(type(p) is int for p in perm) or sorted(perm) != list(range(1, size + 1)):
        raise ParameterError(f"{perm!r} is not a permutation of 1..{size}")
    return perm


def permute_run(protocol: MemorySystem, run: Run, kind: str, perm: Sequence[int]) -> Run:
    """Apply a processor or location permutation to every event of a run.

    Internal events are mapped through the protocol's declared parameter
    kinds, so only parameters of the permuted kind change.
    """
    if kind not in ("proc", "loc"):
        raise ParameterError(f"kind must be 'proc' or 'loc', got {kind!r}")
    size = protocol.n if kind == "proc" else protocol.m
    perm = check_permutation(perm, size)
    out: list[Event] = []
    for e in run.events:
        if isinstance(e, MemoryEvent):
            if kind == "proc":
                e = MemoryEvent(e.op, perm[e.proc - 1], e.loc, e.data)
            else:
                e = MemoryEvent(e.op, e.proc, perm[e.loc - 1], e.data)
        else:
            kinds = protocol.internal_events.get(e.label)
            if kinds is None or len(kinds) != len(e.params):
                raise ParameterError(f"undeclared internal event {e!r}")
            e = InternalEvent(
                e.label,
                tuple(
                    perm[p - 1] if pk == kind else p
                    for p, pk in zip(e.params, kinds)
                ),
            )
        out.append(e)
    return Run(tuple(out), run.params)
