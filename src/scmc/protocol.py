"""Finite cache-coherence protocols as explicit-state transition systems.

A MemorySystem exposes initial states and one transition relation over
immutable states, `successors`: the enabled events of a state, each with its
unique successor.  The shipped protocol is a directory-less invalidation
protocol in the style of Piranha's L2: each processor holds a cache line per
location in state INV, SHD or EXC, requests travel through per-processor
FIFO queues as ACKS/ACKX/INVAL messages, and a per-location owner variable
serializes requests (owner 0 means a request is in flight).  The buggy
variant omits the owner reset in the shared-access grant, which lets a
second grant race the first one's acknowledgment.  A Piranha state is
one bytes object, its packed layout; `PiranhaState` is its readable view.

Queues are bounded by guard strengthening: an event whose body would append
to a full queue is disabled, never an error.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
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
MAX_PROCS_LOCS = 255  # the largest n and m a state can hold: one byte each
MAX_DATA = 255  # the largest data value a state can hold


class Msg(NamedTuple):
    """A queued coherence message; data is None exactly for INVAL."""

    kind: int
    addr: int
    data: Optional[int] = None


class PiranhaState(NamedTuple):
    """The readable view of a Piranha state (`PiranhaProtocol.view`).

    cache[i-1][j-1] is a (data, status) pair; owner[j-1] is 0 or a processor.
    """

    cache: tuple[tuple[tuple[int, int], ...], ...]
    owner: tuple[int, ...]
    inq: tuple[tuple[Msg, ...], ...]


class MemorySystem(ABC):
    """A finite transition system over the shared event alphabet.

    A system gives its initial states and `successors`, the transition
    relation: the enabled events of a state, each with its successor.
    `step` derives from it, and a system may override `step` with a direct
    guard check.  States must be hashable; searches key on them.
    `view` gives a state's readable form, the state itself unless a system
    keeps its states packed, as PiranhaProtocol does.
    The searches call encode_state on every state they reach and
    decode_state on every state they expand.  Both are the identity, and no
    system overrides them; the calls stay only because perfbench gates how
    often the checker makes them.
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

    def view(self, state):
        """The readable form of `state`."""
        return state

    def encode_state(self, state):
        return state

    def decode_state(self, key):
        return key

    def permute_state(self, state, kind: str, perm: Sequence[int]):
        raise NotImplementedError(f"{type(self).__name__} does not support symmetry")


class _Memo(dict):
    """A dict that fills a missing key with fill(key)."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _grant_table(n: int, m: int) -> _Memo:
    """A table from a grant key to Piranha's enabled ACKX and the enabled
    ACKS grants, as 0-based (i, j) pairs ascending in (i, j).

    A key is a state's status bytes (processor i's at i * m + j, 0-based),
    its owner bytes, then a byte per processor that is 1 if its queue is
    full.  Both grants need owner[j] != 0 and room in the requester's queue.
    ACKX(i, j) also needs i not EXC and room in the queue of every other
    sharer of j except the old owner, which is invalidated directly;
    ACKS(i, j) needs i INV.

    The fill closes over plain values, not over the protocol, so the two
    form no reference cycle and the protocol is freed without the cyclic
    collector, which model_check pauses.  Keys are many but grants are
    few, so the (i, j) pairs, the grant tuples and the values are each
    stored once.
    """
    pairs = [[(i, j) for j in range(m)] for i in range(n)]
    shared: dict = {}  # each distinct grant tuple and value, as itself

    def grants(key: bytes) -> tuple[tuple, tuple]:
        status, owner, full = key[: n * m], key[n * m : n * m + m], key[n * m + m :]
        # ACKX at j is blocked when j has no owner, or when a sharer of j
        # other than the old owner has a full queue
        blocked = [
            not old
            or any(full[p] and status[p * m + j] != INV and p + 1 != old for p in range(n))
            for j, old in enumerate(owner)
        ]
        ackx, acks = [], []
        for i in range(n):
            if full[i]:
                continue
            for j in range(m):
                s = status[i * m + j]
                if s != EXC and not blocked[j]:
                    ackx.append(pairs[i][j])
                if s == INV and owner[j]:
                    acks.append(pairs[i][j])
        ackx, acks = tuple(ackx), tuple(acks)
        value = (shared.setdefault(ackx, ackx), shared.setdefault(acks, acks))
        return shared.setdefault(value, value)

    return _Memo(grants)


class PiranhaProtocol(MemorySystem):
    """Piranha's L2 protocol; a state is the bytes of its packed layout.

    For each processor i, a (data, status) byte pair per location j, at
    offset 2 * (i * m + j) (0-based); then the owner byte of each location;
    then each processor's queue: a length byte followed by a (kind, addr,
    data) triple per message, INVAL carrying data 0.  `view` turns a state
    into a PiranhaState and `pack` turns one back.
    """

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
                    f"{name} must be at most {MAX_PROCS_LOCS}, got {value}: states keep"
                    " processor ids and locations in one byte each"
                )
        if type(queue_bound) is not int or queue_bound < 1:
            raise ParameterError(f"queue_bound must be an int >= 1, got {queue_bound!r}")
        self.n, self.m = n, m
        self.queue_bound = queue_bound
        self.buggy = buggy
        self._owner_at = 2 * n * m  # offset of the owner bytes
        self._queues_at = self._owner_at + m  # offset of the first queue
        self._initial: Optional[tuple] = None
        # Events are built once here.  _cells lists, per processor and
        # location in (i, j) order, the offset of its data byte and its
        # events: the reads indexed by data, and each write with its data
        # byte.
        procs, locs, data = range(1, n + 1), range(1, m + 1), range(self.v + 1)
        self._cells = tuple(
            (
                2 * ((i - 1) * m + j - 1),
                tuple(MemoryEvent(READ, i, j, d) for d in data),
                tuple((MemoryEvent(WRITE, i, j, d), bytes((d,))) for d in data),
            )
            for i in procs for j in locs
        )
        self._ackx = tuple(tuple(InternalEvent("ACKX", (i, j)) for j in locs) for i in procs)
        self._acks = tuple(tuple(InternalEvent("ACKS", (i, j)) for j in locs) for i in procs)
        self._upd = tuple(InternalEvent("UPD", (i,)) for i in procs)
        self._invals = tuple(bytes((INVAL_MSG, j, 0)) for j in locs)
        self._grant_table = _grant_table(n, m)

    # -- states -------------------------------------------------------------

    def pack(self, view: PiranhaState) -> bytes:
        """The state whose view is `view`."""
        out = [x for row in view.cache for entry in row for x in entry]
        out += view.owner
        for queue in view.inq:
            out.append(len(queue))
            for kind, addr, data in queue:
                out += (kind, addr, 0 if data is None else data)
        return bytes(out)

    def view(self, state: bytes) -> PiranhaState:
        """The readable form of a state; the inverse of pack."""
        m, owner_at = self.m, self._owner_at
        try:
            starts = self._queue_starts(state)[0]
        except IndexError:
            starts = None
        if starts is None or starts[-1] != len(state):
            raise ParameterError("malformed state")
        cache = tuple(
            tuple((state[pos], state[pos + 1]) for pos in range(start, start + 2 * m, 2))
            for start in range(0, owner_at, 2 * m)
        )
        inq = tuple(
            tuple(
                Msg(kind, addr, None if kind == INVAL_MSG else data)
                for kind, addr, data in zip(*[iter(state[start + 1 : end])] * 3)
            )
            for start, end in zip(starts, starts[1:])
        )
        return PiranhaState(cache, tuple(state[owner_at : self._queues_at]), inq)

    def initial_state(self, owner: Sequence[int]) -> bytes:
        owner = tuple(owner)
        if len(owner) != self.m or not all(1 <= o <= self.n for o in owner):
            raise ParameterError(
                f"owner vector must assign each of {self.m} locations a processor 1..{self.n}"
            )
        row = ((0, SHD),) * self.m
        return self.pack(PiranhaState((row,) * self.n, owner, ((),) * self.n))

    def initial_states(self) -> tuple[bytes, ...]:
        if self._initial is None:
            self._initial = tuple(
                self.initial_state(owner)
                for owner in product(range(1, self.n + 1), repeat=self.m)
            )
        return self._initial

    def _queue_starts(self, state: bytes) -> tuple[list[int], bytearray]:
        """The offset of each processor's queue, then the end of the last;
        and a byte per processor that is 1 if its queue is full."""
        bound, pos = self.queue_bound, self._queues_at
        starts, full = [pos], bytearray()
        for _ in range(self.n):
            length = state[pos]
            full.append(length >= bound)
            pos += 1 + 3 * length
            starts.append(pos)
        return starts, full

    # -- guards -------------------------------------------------------------

    def _grants(self, state: bytes) -> tuple[list[int], tuple[tuple, tuple]]:
        """The queue offsets (`_queue_starts`), and the enabled ACKX and the
        enabled ACKS grants, as 0-based (i, j) pairs ascending in (i, j).

        Grants depend only on the status and owner bytes and on which queues
        are full, so they are looked up in a table keyed by those bytes
        (`_grant_table`).
        """
        starts, full = self._queue_starts(state)
        owner_at = self._owner_at
        key = state[1:owner_at:2] + state[owner_at : self._queues_at] + full
        return starts, self._grant_table[key]

    # -- bodies (0-based processor and location) -----------------------------

    def _do_ackx(self, state: bytes, starts: list[int], i: int, j: int) -> bytes:
        m = self.m
        old = state[self._owner_at + j] - 1
        data = state[2 * (old * m + j)]
        b = bytearray(state)
        if old != i:
            b[2 * (old * m + j) + 1] = INV
        b[self._owner_at + j] = 0
        inval = self._invals[j]
        # from the last queue back, so each insert leaves the offsets of the
        # queues still to visit where they were
        for p in range(self.n - 1, -1, -1):
            if p == i:
                msg = bytes((ACKX_MSG, j + 1, data))
            elif p != old and state[2 * (p * m + j) + 1] != INV:
                msg = inval
            else:
                continue
            end = starts[p + 1]
            b[end:end] = msg
            b[starts[p]] += 1
        return bytes(b)

    def _do_acks(self, state: bytes, starts: list[int], i: int, j: int) -> bytes:
        pos = 2 * ((state[self._owner_at + j] - 1) * self.m + j)
        b = bytearray(state)
        b[pos + 1] = SHD
        if not self.buggy:
            b[self._owner_at + j] = 0  # the bug: this reset is skipped
        end = starts[i + 1]
        b[end:end] = bytes((ACKS_MSG, j + 1, state[pos]))
        b[starts[i]] += 1
        return bytes(b)

    def _do_upd(self, state: bytes, starts: list[int], i: int) -> bytes:
        start = starts[i]
        kind, a, data = state[start + 1 : start + 4]
        b = bytearray(state)
        b[start] -= 1
        del b[start + 1 : start + 4]
        pos = 2 * (i * self.m + a - 1)
        if kind == INVAL_MSG:
            b[pos + 1] = INV
        else:
            b[pos] = data
            b[pos + 1] = SHD if kind == ACKS_MSG else EXC
            b[self._owner_at + a - 1] = i + 1
        return bytes(b)

    # -- transition relation --------------------------------------------------

    def step(self, state: bytes, event: Event):
        if isinstance(event, MemoryEvent):
            i, j = event.proc, event.loc
            if not (1 <= i <= self.n and 1 <= j <= self.m and 0 <= event.data <= MAX_DATA):
                raise ParameterError(f"event out of range: {event!r}")
            pos = 2 * ((i - 1) * self.m + j - 1)
            d, s = state[pos], state[pos + 1]
            if event.op == READ:
                if s == INV or d != event.data:
                    raise DisabledEventError(f"{event!r}: cache holds ({d}, {STATUS_NAMES[s]})")
                return state
            if event.op != WRITE:
                raise ParameterError(f"bad op in {event!r}")
            if s != EXC:
                raise DisabledEventError(f"{event!r}: line not exclusive")
            return state[:pos] + bytes((event.data,)) + state[pos + 1 :]
        if not isinstance(event, InternalEvent):
            raise ParameterError(f"not an event: {event!r}")
        label, params = event.label, event.params
        if label == "UPD":
            if len(params) != 1 or not 1 <= params[0] <= self.n:
                raise ParameterError(f"bad params in {event!r}")
            starts = self._queue_starts(state)[0]
            if not state[starts[params[0] - 1]]:
                raise DisabledEventError(f"{event!r}: queue empty")
            return self._do_upd(state, starts, params[0] - 1)
        if label in ("ACKX", "ACKS"):
            if len(params) != 2 or not (
                1 <= params[0] <= self.n and 1 <= params[1] <= self.m
            ):
                raise ParameterError(f"bad params in {event!r}")
            i, j = params[0] - 1, params[1] - 1
            starts, (ackx, acks) = self._grants(state)
            if label == "ACKX":
                if (i, j) not in ackx:
                    raise DisabledEventError(f"{event!r}: guard false")
                return self._do_ackx(state, starts, i, j)
            if (i, j) not in acks:
                raise DisabledEventError(f"{event!r}: guard false")
            return self._do_acks(state, starts, i, j)
        raise ParameterError(f"unknown internal event label {label!r}")

    def successors(self, state: bytes) -> tuple[tuple[Event, object], ...]:
        """Enabled events with their successor states, in a fixed order:
        reads, writes, ACKX, ACKS, UPD, each ascending in (proc, loc, data).
        A read's successor is `state` itself."""
        out: list[tuple[Event, object]] = []
        writes = []
        for pos, reads, writes_here in self._cells:
            s = state[pos + 1]
            if s == INV:
                continue
            d = state[pos]
            # replays give writes fresh values, which may exceed v
            e = reads[d] if d < len(reads) else MemoryEvent(READ, reads[0].proc, reads[0].loc, d)
            out.append((e, state))
            if s == EXC:
                head, tail = state[:pos], state[pos + 1 :]
                for e, byte in writes_here:
                    writes.append((e, head + byte + tail))
        out += writes
        starts, (ackx, acks) = self._grants(state)
        append = out.append
        for i, j in ackx:
            append((self._ackx[i][j], self._do_ackx(state, starts, i, j)))
        for i, j in acks:
            append((self._acks[i][j], self._do_acks(state, starts, i, j)))
        for i, start in enumerate(starts[: self.n]):
            if state[start]:
                append((self._upd[i], self._do_upd(state, starts, i)))
        return tuple(out)

    # -- misc ----------------------------------------------------------------

    def permute_state(self, state: bytes, kind: str, perm: Sequence[int]) -> bytes:
        if kind not in ("proc", "loc"):
            raise ParameterError(f"kind must be 'proc' or 'loc', got {kind!r}")
        perm = check_permutation(perm, self.n if kind == "proc" else self.m)
        # new id y takes over what old id source[y - 1] + 1 held
        source = sorted(range(len(perm)), key=perm.__getitem__)
        cache, owner, inq = self.view(state)
        if kind == "proc":
            return self.pack(PiranhaState(
                tuple([cache[x] for x in source]),
                tuple([o and perm[o - 1] for o in owner]),
                tuple([inq[x] for x in source]),
            ))
        return self.pack(PiranhaState(
            tuple([tuple([row[x] for x in source]) for row in cache]),
            tuple([owner[x] for x in source]),
            tuple([tuple([Msg(k, perm[a - 1], d) for k, a, d in queue]) for queue in inq]),
        ))


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


_DIGIT_BASE = 255  # a shadow write carries one digit of its tag, plus 1: 1..255


def _shadow_pass(protocol: MemorySystem, run: Run, initial_state, write_values):
    """Follow the run on a shadow copy of the protocol in which the writes
    carry write_values, in run order, and yield (index, event, shadow
    event) for each memory event.  A shadow read is the one read the shadow
    state enables at the read's processor and location.  Divergence raises
    DataIndependenceError."""
    values = iter(write_values)
    shadow = initial_state
    for idx, e in enumerate(run.events, 1):
        if not isinstance(e, MemoryEvent):
            sh = e
        elif e.op == WRITE:
            sh = MemoryEvent(WRITE, e.proc, e.loc, next(values))
            yield idx, e, sh
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
            yield idx, e, sh
        try:
            shadow = protocol.step(shadow, sh)
        except DisabledEventError as exc:
            raise DataIndependenceError(f"event {idx}: shadow diverged: {exc}") from None


def replay_unambiguous(protocol: MemorySystem, run: Run, initial_state) -> Trace:
    """Re-execute the run with globally fresh per-location write values.

    A shadow copy of the protocol follows the run's control path while the
    i-th write to each location carries tag i and every read returns
    whatever the shadow state serves at that processor and location.  The
    result is an unambiguous trace whose renaming back to the original data
    values reproduces the run's memory projection; divergence between the
    two executions means the protocol is not data independent.  The run is
    replayed first, so a run that does not replay raises ReplayError before
    the shadow pass starts.

    A shadow write carries one base-255 digit of its tag, plus 1, so that
    values fit in the 1..255 that a packed state holds, and 0 stays the
    initial value.  There is one pass per digit of the largest tag, lowest
    digit first; with at most 255 writes per location that is one pass.
    The last pass spells each event's tag from its values in every pass,
    and checks each read's renaming as it reaches the read.
    """
    replay(protocol, run, initial_state)
    written: dict[int, int] = {}
    tags: list[int] = []
    for e in run.events:
        if isinstance(e, MemoryEvent) and e.op == WRITE:
            written[e.loc] = tag = written.get(e.loc, 0) + 1
            tags.append(tag)
    v = max(tags, default=1)
    passes = 1
    while v > _DIGIT_BASE**passes:
        passes += 1
    # by event index, over the passes so far: the sum of (value - 1) * scale
    # and the number of passes whose value was 0, the initial value
    spelled = [0] * (len(run.events) + 1)
    unwritten = [0] * (len(run.events) + 1)
    renamed: dict[tuple[int, int], int] = {}
    out: list[MemoryEvent] = []
    for p in range(passes):
        scale = _DIGIT_BASE**p
        digits = [(tag - 1) // scale % _DIGIT_BASE + 1 for tag in tags]
        for idx, e, sh in _shadow_pass(protocol, run, initial_state, digits):
            x = sh.data
            spelled[idx] += (x - 1) * scale
            unwritten[idx] += not x
            if p < passes - 1:
                continue
            miss = unwritten[idx]
            # -1 when the passes disagree on whether the read saw a write
            tag = spelled[idx] + 1 if not miss else 0 if miss == passes else -1
            if e.op == WRITE:
                renamed[(e.loc, tag)] = e.data
            else:
                expected = 0 if tag == 0 else renamed.get((e.loc, tag))
                if expected != e.data:
                    raise DataIndependenceError(
                        f"event {idx}: shadow read value {tag} renames to {expected}, "
                        f"run read {e.data}"
                    )
            # in a single pass the shadow event itself carries the tag
            out.append(sh if x == tag else MemoryEvent(e.op, e.proc, e.loc, tag))
    return Trace(tuple(out), Params(protocol.n, protocol.m, v))


def check_permutation(perm: Sequence[int], size: int) -> tuple[int, ...]:
    """Validate that perm is a bijection on 1..size; returns it as a tuple.

    Entries must be ints, not bools or floats, as in the JSON Lines reader.
    """
    perm = tuple(perm)
    if not all(type(p) is int for p in perm) or sorted(perm) != list(range(1, size + 1)):
        raise ParameterError(f"{perm!r} is not a permutation of 1..{size}")
    return perm


def permute_event(protocol: MemorySystem, e: Event, kind: str, perm: tuple[int, ...]) -> Event:
    """e with every parameter of the given kind, "proc" or "loc", mapped
    through perm, a permutation that check_permutation accepted.

    Internal events are mapped through the protocol's declared parameter
    kinds, so only parameters of the permuted kind change.
    """
    if isinstance(e, MemoryEvent):
        if kind == "proc":
            return MemoryEvent(e.op, perm[e.proc - 1], e.loc, e.data)
        return MemoryEvent(e.op, e.proc, perm[e.loc - 1], e.data)
    kinds = protocol.internal_events.get(e.label)
    if kinds is None or len(kinds) != len(e.params):
        raise ParameterError(f"undeclared internal event {e!r}")
    return InternalEvent(
        e.label, tuple(perm[p - 1] if pk == kind else p for p, pk in zip(e.params, kinds))
    )
