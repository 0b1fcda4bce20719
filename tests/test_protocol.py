import hashlib
import itertools
import random

import pytest

from scmc import (
    DataIndependenceError,
    DisabledEventError,
    InternalEvent,
    MemoryEvent,
    Params,
    ParameterError,
    PiranhaProtocol,
    ReplayError,
    Run,
    dumps_jsonl,
    make_protocol,
    project_trace,
    replay,
    replay_unambiguous,
)
from scmc.protocol import EXC, INV, INVAL_MSG, MAX_QUEUE_BOUND, SHD, permute_event
from fixtures import HallucinatingReadProtocol, LostWriteProtocol, PrivilegedWriterProtocol
from reference_protocol import ReferencePiranha
from reference_trace import permute_run

W = lambda p, l, d: MemoryEvent("W", p, l, d)
R = lambda p, l, d: MemoryEvent("R", p, l, d)
ACKX = lambda i, j: InternalEvent("ACKX", (i, j))
ACKS = lambda i, j: InternalEvent("ACKS", (i, j))
UPD = lambda i: InternalEvent("UPD", (i,))

RUN8 = Run(
    (ACKX(1, 1), UPD(1), W(1, 1, 1), R(2, 1, 0), UPD(2), ACKS(2, 1), UPD(2), R(2, 1, 1)),
    Params(2, 1, 1),
)

# processor 1 writes location 1 and keeps tag 1 with an INVAL queued, and
# processor 2 then owns it exclusively
SETUP_LOC1 = (ACKX(1, 1), UPD(1), W(1, 1, 1), UPD(2), ACKS(2, 1), UPD(2), ACKX(2, 1), UPD(2))

RUN12 = Run(
    (
        ACKX(2, 2), UPD(2), ACKS(1, 2), ACKX(2, 2), ACKX(1, 1), UPD(1), UPD(1),
        W(1, 1, 1), R(1, 2, 0), UPD(2), W(2, 2, 1), R(2, 1, 0),
    ),
    Params(2, 2, 1),
)


class TestConstruction:
    def test_initial_state_counts(self):
        assert len(make_protocol("piranha", 2, 2).initial_states()) == 4
        assert len(make_protocol("piranha", 1, 1).initial_states()) == 1
        assert len(make_protocol("piranha", 2, 1).initial_states()) == 2

    def test_initial_state_shape(self):
        p = make_protocol("piranha", 2, 2)
        s = p.view(p.initial_state((2, 1)))
        assert s.owner == (2, 1)
        assert all(cell == (0, SHD) for row in s.cache for cell in row)
        assert all(q == () for q in s.inq)

    def test_initial_state_validates_owners(self):
        p = make_protocol("piranha", 2, 2)
        with pytest.raises(ParameterError):
            p.initial_state((0, 1))
        with pytest.raises(ParameterError):
            p.initial_state((3, 1))
        with pytest.raises(ParameterError):
            p.initial_state((1,))

    def test_unknown_protocol_name(self):
        with pytest.raises(ParameterError):
            make_protocol("mesi", 2, 2)

    def test_bad_queue_bound(self):
        with pytest.raises(ParameterError):
            PiranhaProtocol(2, 2, queue_bound=0)
        # a queue's length is one byte of the state
        PiranhaProtocol(2, 2, queue_bound=MAX_QUEUE_BOUND)
        with pytest.raises(ParameterError, match=r"1\.\.255"):
            PiranhaProtocol(2, 2, queue_bound=MAX_QUEUE_BOUND + 1)

    @pytest.mark.parametrize("bound", [2.5, 3.0, True, "3"])
    def test_queue_bound_must_be_an_int(self, bound):
        # a float bound would act as the next int up: 2.5 as 3
        with pytest.raises(ParameterError):
            PiranhaProtocol(2, 2, queue_bound=bound)
        with pytest.raises(ParameterError):
            make_protocol("piranha", 2, 2, bound)

    def test_data_domain_is_fixed(self):
        # a third positional argument, once v, is not taken as queue_bound
        assert make_protocol("piranha", 2, 2).v == 2
        with pytest.raises(TypeError):
            PiranhaProtocol(2, 2, 2)
        with pytest.raises(TypeError):
            make_protocol("piranha", 2, 2, 1, v=2)


class TestReplay:
    def test_eight_event_run(self):
        p = make_protocol("piranha", 2, 1)
        final = p.view(replay(p, RUN8, p.initial_state((1,))))
        assert final.cache[1][0] == (1, SHD)

    def test_empty_run(self):
        p = make_protocol("piranha", 2, 1)
        init = p.initial_state((1,))
        assert replay(p, Run((), Params(2, 1, 1)), init) == init

    def test_twelve_event_run_on_buggy(self):
        p = make_protocol("piranha-buggy", 2, 2)
        final = p.view(replay(p, RUN12, p.initial_state((1, 1))))
        assert final.cache[0][0] == (1, EXC)
        assert final.cache[1][1] == (1, EXC)

    def test_twelve_event_run_fails_on_correct(self):
        p = make_protocol("piranha", 2, 2)
        with pytest.raises(ReplayError) as exc:
            replay(p, RUN12, p.initial_state((1, 1)))
        assert exc.value.index == 4

    def test_owner_zeroed_before_failing_event(self):
        # after the prefix [ACKX(2,2), UPD(2), ACKS(1,2)] the correct
        # variant has given up ownership of location 2
        p = make_protocol("piranha", 2, 2)
        prefix = Run(RUN12.events[:3], Params(2, 2, 1))
        state = replay(p, prefix, p.initial_state((1, 1)))
        assert p.view(state).owner[1] == 0
        pb = make_protocol("piranha-buggy", 2, 2)
        state_b = replay(pb, prefix, pb.initial_state((1, 1)))
        assert pb.view(state_b).owner[1] == 2

    def test_parameter_mismatch(self):
        p = make_protocol("piranha", 2, 1)
        with pytest.raises(ParameterError):
            replay(p, RUN12, p.initial_state((1,)))


class TestGuards:
    def test_write_needs_exclusive(self):
        p = make_protocol("piranha", 2, 2)
        for s in p.initial_states():
            for e, _ in p.successors(s):
                if isinstance(e, MemoryEvent) and e.op == "W":
                    assert p.view(s).cache[e.proc - 1][e.loc - 1][1] == EXC
        # initial states are all-SHD, so no writes at all
        assert not any(
            isinstance(e, MemoryEvent) and e.op == "W"
            for s in p.initial_states()
            for e, _ in p.successors(s)
        )

    def test_read_matches_cache_data(self):
        p = make_protocol("piranha", 2, 2)
        s = p.initial_state((1, 1))
        reads = [e for e, _ in p.successors(s) if isinstance(e, MemoryEvent) and e.op == "R"]
        assert reads and all(e.data == 0 for e in reads)

    def test_step_rejects_disabled(self):
        p = make_protocol("piranha", 2, 2)
        s = p.initial_state((1, 1))
        with pytest.raises(DisabledEventError):
            p.step(s, W(1, 1, 1))

    def test_step_rejects_malformed(self):
        p = make_protocol("piranha", 2, 2)
        s = p.initial_state((1, 1))
        with pytest.raises(ParameterError):
            p.step(s, InternalEvent("NOPE", (1,)))
        with pytest.raises(ParameterError):
            p.step(s, ACKX(3, 1))

    def test_successors_match_enabled_and_step(self):
        p = make_protocol("piranha-buggy", 2, 2, 2)
        rng = random.Random(11)
        state = p.initial_state((1, 2))
        for _ in range(200):
            succ = p.successors(state)
            # each enabled event appears once, with its unique successor
            assert len({e for e, _ in succ}) == len(succ)
            for e, nxt in succ:
                assert p.step(state, e) == nxt
            if not succ:
                break
            state = succ[rng.randrange(len(succ))][1]

    def test_queue_bound_respected(self):
        for q in (1, 2, 3):
            p = make_protocol("piranha", 2, 2, q)
            rng = random.Random(5)
            state = p.initial_state((1, 1))
            for _ in range(300):
                assert all(len(queue) <= q for queue in p.view(state).inq)
                succ = p.successors(state)
                if not succ:
                    break
                state = succ[rng.randrange(len(succ))][1]

    def test_queue_bound_disables_producer(self):
        # drive processor 2 to INV so ACKS(2,1) can fill its queue, then
        # check the producer is disabled exactly when the queue is full
        setup = Run((ACKX(1, 1), UPD(2), UPD(1), ACKS(2, 1)), Params(2, 1, 1))
        tight = make_protocol("piranha-buggy", 2, 1, 1)
        s = replay(tight, setup, tight.initial_state((1,)))
        assert len(tight.view(s).inq[1]) == 1
        assert ACKS(2, 1) not in dict(tight.successors(s))
        roomy = make_protocol("piranha-buggy", 2, 1, 2)
        s = replay(roomy, setup, roomy.initial_state((1,)))
        assert ACKS(2, 1) in dict(roomy.successors(s))


def _alphabet(p):
    """Every event of p with data 0..v, enabled or not."""
    procs, locs, data = range(1, p.n + 1), range(1, p.m + 1), range(p.v + 1)
    out = [MemoryEvent(op, i, j, d) for op in "RW" for i in procs for j in locs for d in data]
    out += [InternalEvent(label, (i, j)) for label in ("ACKX", "ACKS") for i in procs for j in locs]
    return out + [UPD(i) for i in procs]


def _reachable(p, limit):
    """The first `limit` reachable states of p in breadth-first order."""
    seen = dict.fromkeys(p.initial_states())
    frontier = list(seen)
    while frontier and len(seen) < limit:
        frontier = list(dict.fromkeys(
            s2 for s in frontier for _e, s2 in p.successors(s) if s2 not in seen
        ))
        seen.update(dict.fromkeys(frontier))
    return list(seen)[:limit]


def _assert_step_agrees(p, states):
    """step enables exactly the events successors lists, with equal
    successors, on every one of the states."""
    alphabet = _alphabet(p)
    for s in states:
        succ = dict(p.successors(s))
        for e in alphabet:
            try:
                s2 = p.step(s, e)
            except DisabledEventError:
                assert e not in succ
            else:
                assert e in succ and succ[e] == s2


class TestSuccessorsAgreeWithStep:
    # piranha 2x2 Q2 has 11,898 reachable states; the buggy variant's state
    # space at Q2 is far larger, so it is covered up to the same size
    @pytest.mark.parametrize("name", ["piranha", "piranha-buggy"])
    def test_every_state_every_event(self, name):
        p = make_protocol(name, 2, 2, 2)
        states = _reachable(p, 12_000)
        if name == "piranha":
            assert len(states) == 11_898
        _assert_step_agrees(p, states)

    # queue bound 1 with three processors or three locations: a sharer's
    # full queue blocks ACKX in many of these states.  The first 30,000
    # reachable states, as in TestPackedRelation.
    @pytest.mark.parametrize("name", ["piranha", "piranha-buggy"])
    @pytest.mark.parametrize("n, m", [(3, 2), (2, 3)])
    def test_full_sharer_blocks_ackx(self, name, n, m):
        p = make_protocol(name, n, m, 1)
        states = _reachable(p, 30_000)
        # states where a sharer other than the owner has a full queue, which
        # at queue bound 1 is any queue that is not empty
        blocked = 0
        for s in states:
            cache, owner, inq = p.view(s)
            blocked += any(
                inq[x] and cache[x][j][1] != INV and x + 1 != old
                for j, old in enumerate(owner) if old
                for x in range(n)
            )
        assert blocked > len(states) // 2
        _assert_step_agrees(p, states)

    def test_read_of_data_beyond_v(self):
        # replay_unambiguous's shadow states hold fresh write values above v
        p = make_protocol("piranha", 2, 2)
        s = p.initial_state((1, 1))
        s = p.pack(p.view(s)._replace(cache=(((5, SHD), (0, INV)), ((0, SHD), (0, SHD)))))
        succ = p.successors(s)
        assert (R(1, 1, 5), s) in succ
        assert [e for e, nxt in succ if nxt is s] == [R(1, 1, 5), R(2, 1, 0), R(2, 2, 0)]
        assert p.step(s, R(1, 1, 5)) is s
        assert p.view(s).cache[0][0] == (5, SHD)


class TestPackedRelation:
    # every reachable state, breadth-first, up to 30,000: all of piranha
    # 2x2 Q2 (11,898) and Q3 (15,570), the first 30,000 of the others
    @pytest.mark.parametrize("name", ["piranha", "piranha-buggy"])
    @pytest.mark.parametrize("n, m, q", [(2, 2, 2), (2, 2, 3), (2, 3, 1), (3, 2, 1)])
    def test_successors_match_reference(self, name, n, m, q):
        p = make_protocol(name, n, m, q)
        ref = ReferencePiranha(n, m, q, buggy=name == "piranha-buggy")
        for s in _reachable(p, 30_000):
            succ = p.successors(s)
            want = ref.successors(p.view(s))
            assert [e for e, _ in succ] == [e for e, _ in want]
            assert [s2 for _, s2 in succ] == [p.pack(s2) for _, s2 in want]
            assert all(type(s2) is bytes for _, s2 in succ)
            assert all(s2 is s for e, s2 in succ if getattr(e, "op", None) == "R")


class TestPackedLayout:
    # every queue has queue_bound slots at a fixed offset, so every state
    # has one length and pack inverts view on it
    @pytest.mark.parametrize("name", ["piranha", "piranha-buggy"])
    @pytest.mark.parametrize("n, m, q", [(2, 2, 3), (3, 2, 1)])
    def test_fixed_length_and_pack_inverts_view(self, name, n, m, q):
        p = make_protocol(name, n, m, q)
        for s in _reachable(p, 30_000):
            assert len(s) == 2 * n * m + m + n + 3 * n * q
            assert p.pack(p.view(s)) == s


class TestUnambiguousReplay:
    def test_already_unambiguous_identity(self):
        p = make_protocol("piranha", 2, 1)
        trace = replay_unambiguous(p, RUN8, p.initial_state((1,)))
        assert trace.events == project_trace(RUN8).events

    def test_twelve_event_run(self):
        p = make_protocol("piranha-buggy", 2, 2)
        trace = replay_unambiguous(p, RUN12, p.initial_state((1, 1)))
        assert trace.events == (W(1, 1, 1), R(1, 2, 0), W(2, 2, 1), R(2, 1, 0))

    def test_duplicate_writes_get_fresh_values(self):
        p = make_protocol("piranha", 1, 1)
        run = Run(
            (ACKX(1, 1), UPD(1), W(1, 1, 1), W(1, 1, 1), R(1, 1, 1)), Params(1, 1, 1)
        )
        trace = replay_unambiguous(p, run, p.initial_state((1,)))
        assert [e.data for e in trace.events] == [1, 2, 2]

    @pytest.mark.parametrize("burst_len", [254, 255, 600])
    def test_tags_past_255_writes(self, burst_len):
        # processor 2 owns location 1 and writes it burst_len times while
        # processor 1 still holds tag 1 with an INVAL queued; the largest
        # tag, burst_len + 1, is 255 (one shadow pass), 256 or 601 (two
        # passes, one per base-255 digit)
        p = make_protocol("piranha", 2, 1)
        top, last = burst_len + 1, 1 + (burst_len - 1) % 2
        burst = tuple(W(2, 1, 1 + x % 2) for x in range(burst_len))
        tail = (R(1, 1, 1), R(2, 1, last), UPD(1), R(2, 1, last))
        run = Run(SETUP_LOC1 + burst + tail, Params(2, 1, 2))
        trace = replay_unambiguous(p, run, p.initial_state((1,)))
        assert [e.data for e in trace.events if e.op == "W"] == list(range(1, top + 1))
        assert trace.events[-3:] == (R(1, 1, 1), R(2, 1, top), R(2, 1, top))
        assert trace.params == Params(2, 1, top)

    def test_location_with_few_writes_after_a_burst(self):
        # location 1 takes two passes; location 2's tags stay below 4, so
        # its high digit is 1 in every write and its reads spell their tags
        # from both passes, including the reads of the initial value
        p = make_protocol("piranha", 2, 2)
        burst = tuple(W(2, 1, 1 + x % 2) for x in range(300))
        tail = (
            R(1, 1, 1), R(2, 2, 0), ACKX(1, 2), R(2, 2, 0), UPD(1), UPD(1),
            W(1, 2, 2), R(1, 2, 2), W(1, 2, 1), W(1, 2, 2), R(1, 2, 2), R(2, 1, 2),
        )
        run = Run(SETUP_LOC1 + burst + tail, Params(2, 2, 2))
        trace = replay_unambiguous(p, run, p.initial_state((1, 1)))
        assert trace.events[-9:] == (
            R(1, 1, 1), R(2, 2, 0), R(2, 2, 0),
            W(1, 2, 1), R(1, 2, 1), W(1, 2, 2), W(1, 2, 3), R(1, 2, 3), R(2, 1, 301),
        )
        assert trace.params == Params(2, 2, 301)

    def test_data_dependent_read_names_its_event(self):
        # in the shadow the lost write is the second, so the read sees the
        # first write's tag, which renames to 2 where the run read 1
        run = Run((W(1, 1, 2), W(1, 1, 1), R(1, 1, 1)), Params(1, 1, 2))
        p = LostWriteProtocol(1, 1, 2)
        with pytest.raises(DataIndependenceError) as exc:
            replay_unambiguous(p, run, p.initial_states()[0])
        assert str(exc.value) == "event 3: shadow read value 1 renames to 2, run read 1"

    def test_long_walk_unchanged(self, long_walk):
        # the 10,000-event walk reaches tag 706 at one location; this is
        # its JSON Lines digest from when states were tuples, whose tags
        # were unbounded
        digest = hashlib.sha256(dumps_jsonl(long_walk).encode()).hexdigest()
        assert digest == "1b32868027b019dfb253c4c0bc9206a7886a3414fce31d9599f2156482cd2962"
        assert long_walk.params.v == 706

    def test_replay_failure_propagates(self):
        p = make_protocol("piranha", 2, 2)
        with pytest.raises(ReplayError):
            replay_unambiguous(p, RUN12, p.initial_state((1, 1)))

    @pytest.mark.parametrize("name", ["piranha", "piranha-buggy"])
    def test_replay_error_index_matches_replay(self, name):
        # a seeded walk with a read that is disabled where it stands spliced
        # into its middle: both replays name that read's index
        p = make_protocol(name, 2, 2)
        init = p.initial_state((1, 1))
        rng = random.Random(5)
        state, walk = init, []
        for _ in range(10):
            e, state = rng.choice(p.successors(state))
            walk.append(e)
        state = replay(p, Run(tuple(walk[:5]), Params(2, 2, 2)), init)
        bad = next(e for e in (R(1, 1, 0), R(1, 1, 1)) if e not in dict(p.successors(state)))
        run = Run((*walk[:5], bad, *walk[5:]), Params(2, 2, 2))
        with pytest.raises(ReplayError) as direct:
            replay(p, run, init)
        with pytest.raises(ReplayError) as shadowed:
            replay_unambiguous(p, run, init)
        assert direct.value.index == shadowed.value.index == 6


class TestStateEncoding:
    def test_injective_on_sampled_reachable_states(self):
        p = make_protocol("piranha-buggy", 2, 2, 2)
        rng = random.Random(3)
        seen = {}
        state = p.initial_state((2, 1))
        for _ in range(500):
            key = p.view(state)
            if key in seen:
                assert seen[key] == state
            seen[key] = state
            succ = p.successors(state)
            if not succ:
                break
            state = succ[rng.randrange(len(succ))][1]
        assert len(seen) > 50

    def test_distinct_states_distinct_keys(self):
        p = make_protocol("piranha", 2, 2)
        keys = {p.encode_state(s) for s in p.initial_states()}
        assert len(keys) == 4

    def test_decode_inverts_encode_on_random_walk(self):
        p = make_protocol("piranha-buggy", 3, 2, 2)
        rng = random.Random(11)
        state = p.initial_states()[5]
        for _ in range(300):
            assert p.pack(p.view(state)) == state
            assert p.decode_state(p.encode_state(state)) is state
            succ = p.successors(state)
            if not succ:
                break
            state = succ[rng.randrange(len(succ))][1]

    def test_decode_restores_message_payloads(self):
        # a third sharer receives INVAL (data None); requester gets ACKX
        p = make_protocol("piranha", 3, 2, 3)
        run = Run((InternalEvent("ACKX", (2, 1)),), Params(3, 2, 2))
        state = replay(p, run, p.initial_state((1, 1)))
        view = p.view(state)
        assert any(msg.data is None for q in view.inq for msg in q)
        assert any(msg.data is not None for q in view.inq for msg in q)
        assert p.pack(view) == state

    def test_decode_rejects_malformed_key(self):
        p = make_protocol("piranha", 2, 2)
        key = p.initial_state((1, 1))
        # processor 1's queue: its length byte, then its first slot
        lengths_at, slot = 2 * 2 * 2 + 2, 2 * 2 * 2 + 2 + 2
        longer = key[:lengths_at] + bytes((4,)) + key[lengths_at + 1 :]
        stray = key[:slot] + bytes((INVAL_MSG, 1, 0)) + key[slot + 3 :]
        for bad in (key + b"\x00", key[:-1], key[:3], longer, stray):
            with pytest.raises(ParameterError):
                p.view(bad)

    def test_generic_decode_inverts_encode(self):
        # the contract every system keeps; the base-class key is the state
        states = [HallucinatingReadProtocol().initial_states()[0]]
        fixture = PrivilegedWriterProtocol(3, 2)
        for state in fixture.initial_states():
            states.extend(s for _e, s in fixture.successors(state))
        states.append((None, (240, -1), ((), 2**40)))
        for state in states:
            assert fixture.decode_state(fixture.encode_state(state)) == state


class TestSymmetry:
    def test_permute_run_then_replay(self):
        p = make_protocol("piranha-buggy", 2, 2)
        init = p.initial_state((1, 1))
        for kind, perm in (("proc", (2, 1)), ("loc", (2, 1))):
            image = permute_run(p, RUN12, kind, perm)
            permuted_init = p.permute_state(init, kind, perm)
            final = replay(p, image, permuted_init)
            direct = p.permute_state(replay(p, RUN12, init), kind, perm)
            assert final == direct

    def test_random_walk_symmetry(self):
        p = make_protocol("piranha", 3, 2, 2)
        rng = random.Random(17)
        for _ in range(30):
            roots = p.initial_states()
            root = roots[rng.randrange(len(roots))]
            state, events = root, []
            for _ in range(15):
                succ = p.successors(state)
                if not succ:
                    break
                e, state = succ[rng.randrange(len(succ))]
                events.append(e)
            run = Run(tuple(events), Params(3, 2, 2))
            for kind, size in (("proc", 3), ("loc", 2)):
                perm = list(range(1, size + 1))
                rng.shuffle(perm)
                image = permute_run(p, run, kind, tuple(perm))
                replay(p, image, p.permute_state(root, kind, tuple(perm)))

    def test_permute_state_identity(self):
        p = make_protocol("piranha", 2, 2)
        s = p.initial_state((2, 1))
        assert p.permute_state(s, "proc", (1, 2)) == s
        assert p.permute_state(s, "loc", (1, 2)) == s

    def test_permute_state_moves_owner(self):
        p = make_protocol("piranha", 2, 2)
        s = p.initial_state((2, 1))
        assert p.view(p.permute_state(s, "proc", (2, 1))).owner == (1, 2)
        assert p.view(p.permute_state(s, "loc", (2, 1))).owner == (1, 2)

    def test_permute_event(self):
        p = make_protocol("piranha", 3, 2)
        assert permute_event(p, W(1, 2, 1), "proc", (3, 1, 2)) == W(3, 2, 1)
        assert permute_event(p, W(1, 2, 1), "loc", (2, 1)) == W(1, 1, 1)
        # only the parameters of the permuted kind move
        assert permute_event(p, ACKX(1, 2), "proc", (2, 3, 1)) == ACKX(2, 2)
        assert permute_event(p, ACKX(1, 2), "loc", (2, 1)) == ACKX(1, 1)
        assert permute_event(p, UPD(3), "loc", (2, 1)) == UPD(3)
        assert permute_event(p, UPD(3), "proc", (2, 3, 1)) == UPD(1)

    @pytest.mark.parametrize(
        "label, params", [("FLUSH", (1,)), ("ACKX", (1,)), ("UPD", (1, 1))]
    )
    def test_permute_event_rejects_undeclared_internal_events(self, label, params):
        p = make_protocol("piranha", 2, 2)
        with pytest.raises(ParameterError):
            permute_event(p, InternalEvent(label, params), "proc", (2, 1))

    @pytest.mark.parametrize("perm", [(1.0, 2.0), (True, 2), (2, True)])
    def test_permutation_entries_must_be_ints(self, perm):
        # both sort like (1, 2), but a float cannot index a tuple and True
        # would land in a state or run as a processor or location
        p = make_protocol("piranha", 2, 2)
        s = p.initial_state((2, 1))
        for kind in ("proc", "loc"):
            with pytest.raises(ParameterError):
                p.permute_state(s, kind, perm)
            with pytest.raises(ParameterError):
                permute_run(p, RUN12, kind, perm)


def at_most_one_exclusive(p, state) -> bool:
    """Coherence: no location is EXC in two caches at once."""
    state = p.view(state)
    return all(
        sum(row[j][1] == EXC for row in state.cache) <= 1 for j in range(len(state.owner))
    )


class TestExclusiveInvariant:
    def test_initial_states_hold(self):
        p = make_protocol("piranha", 2, 2)
        for s in p.initial_states():
            assert at_most_one_exclusive(p, s)

    def test_correct_variant_bounded(self):
        # exhaustive at queue bound 1: the single-exclusive-copy property
        # holds in every reachable state of the correct variant
        p = make_protocol("piranha", 2, 2, 1)
        seen = set()
        stack = list(p.initial_states())
        while stack:
            s = stack.pop()
            key = p.encode_state(s)
            if key in seen:
                continue
            seen.add(key)
            assert at_most_one_exclusive(p, s)
            stack.extend(nxt for _, nxt in p.successors(s))
        assert len(seen) > 100

    def test_buggy_variant_violates(self):
        # the skipped owner reset lets two processors reach EXC on one
        # location; breadth-first search finds such a state within depth 8
        p = make_protocol("piranha-buggy", 2, 2, 2)
        seen = set()
        frontier = [(s, 0) for s in p.initial_states()]
        for s, _ in frontier:
            seen.add(p.encode_state(s))
        found = False
        while frontier and not found:
            s, depth = frontier.pop(0)
            if not at_most_one_exclusive(p, s):
                found = True
                break
            if depth == 8:
                continue
            for _, nxt in p.successors(s):
                key = p.encode_state(nxt)
                if key not in seen:
                    seen.add(key)
                    frontier.append((nxt, depth + 1))
        assert found
