"""Tests for the collective algorithm layer: channels, primitives, sequences."""

import hashlib
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.types import CollectiveKind, PrimitiveAction
from repro.common.vtime import VirtualClock
from repro.collectives import (
    Communicator,
    CostModel,
    ExecOutcome,
    PrimitiveExecutor,
    chunk_loops,
    generate_primitive_sequence,
    primitive_count,
)
from repro.collectives.primitives import PRIMITIVE_NAMES
from repro.gpusim.cluster import build_cluster


def make_communicator(size=4):
    cluster = build_cluster("single-3090")
    return Communicator(cluster.devices[:size], cluster.interconnect)


def _send_recv_pair(loops=3):
    """Rank 0's and rank 1's executors of a ``loops``-chunk send/recv, the
    channel between them and a clock at zero for each."""
    comm = make_communicator(2)
    nbytes = loops * (128 << 10)
    sender, receiver = (
        PrimitiveExecutor(0, rank, comm, generate_primitive_sequence(
            CollectiveKind.SEND_RECV, rank, 2, nbytes))
        for rank in (0, 1))
    return sender, receiver, comm.channel(0, 1), VirtualClock(), VirtualClock()


class TestChannel:
    """A channel holds arrival times; ``burst`` pushes and pops them."""

    def test_fifo_order(self):
        _, receiver, channel, _, clock = _send_recv_pair()
        channel.arrivals.extend([30.0, 10.0, 20.0])
        assert receiver.burst(clock)[0] == 1
        assert list(channel.arrivals) == [10.0, 20.0]
        assert clock.now > 30.0  # waited for the head, not the earliest
        assert receiver.burst(clock)[0] == 1
        assert list(channel.arrivals) == [20.0]

    def test_capacity_limits_writes(self):
        sender, _, channel, clock, _ = _send_recv_pair()
        channel.capacity = 2
        executed, outcome = sender.burst(clock, limit=3)
        assert (executed, outcome.outcome) == (2, ExecOutcome.WAIT_SEND)
        assert outcome.wait_key == channel.writable_key
        assert len(channel.arrivals) == 2
        assert (channel.pushed_count, channel.bytes_pushed) == (2, 2 * (128 << 10))

    def test_readable_respects_max_wait(self):
        _, receiver, channel, _, clock = _send_recv_pair()
        channel.arrivals.append(100.0)
        executed, outcome = receiver.burst(clock, max_wait_us=10.0)
        assert (executed, outcome.outcome) == (0, ExecOutcome.WAIT_RECV)
        assert outcome.wait_key == channel.readable_key
        assert receiver.late_arrival_us(outcome) == 100.0
        clock.now = 95.0
        assert receiver.burst(clock, max_wait_us=10.0)[0] == 1
        assert not channel.arrivals and clock.now > 100.0
        channel.arrivals.append(1000.0)  # an unbounded wait takes any arrival
        assert receiver.burst(clock)[0] == 1


class TestCommunicator:
    def test_channels_are_cached(self):
        comm = make_communicator(2)
        assert comm.channel(0, 1) is comm.channel(0, 1)
        assert comm.channel(0, 1) is not comm.channel(1, 0)

    def test_reset_channels(self):
        comm = make_communicator(2)
        comm.channel(0, 1)
        comm.reset_channels()
        assert comm.channels() == {}


class TestChunkLoops:
    def test_small_payload_single_loop(self):
        assert chunk_loops(1024, 8) == [128]

    def test_large_payload_multiple_loops(self):
        loops = chunk_loops(8 * (128 << 10) * 3, 8)
        assert len(loops) == 3

    def test_broadcast_style_not_sliced(self):
        loops = chunk_loops(256 << 10, 8, per_rank_slices=False)
        assert len(loops) == 2

    def test_rejects_non_positive(self):
        with pytest.raises(Exception):
            chunk_loops(0, 8)

    @given(st.integers(1, 1 << 24), st.integers(2, 16))
    @settings(max_examples=50, deadline=None)
    def test_loops_cover_payload(self, nbytes, group_size):
        loops = chunk_loops(nbytes, group_size)
        covered = sum(size * group_size for size in loops)
        assert covered >= nbytes


class TestSequences:
    @pytest.mark.parametrize("kind,expected", [
        # Ring all-reduce: 2(n-1) communication steps = 2n-1 primitives
        # (the final step is a receive without a send), as in NCCL.
        (CollectiveKind.ALL_REDUCE, 15),
        (CollectiveKind.ALL_GATHER, 8),
        (CollectiveKind.REDUCE_SCATTER, 8),
        (CollectiveKind.BROADCAST, 1),
        (CollectiveKind.REDUCE, 1),
    ])
    def test_primitive_counts_per_loop(self, kind, expected):
        assert primitive_count(kind, 8, nbytes=1024) == expected

    def test_single_rank_collective_is_a_copy(self):
        sequence = generate_primitive_sequence(CollectiveKind.ALL_REDUCE, 0, 1, 1024)
        assert len(sequence) == 1
        assert sequence[0].action == PrimitiveAction.COPY

    def test_all_reduce_structure(self):
        sequence = generate_primitive_sequence(CollectiveKind.ALL_REDUCE, 2, 4, 1024)
        names = [primitive.name for primitive in sequence]
        assert names == ["send", "recvReduceSend", "recvReduceSend",
                         "recvReduceCopySend", "recvCopySend", "recvCopySend", "recv"]

    def test_broadcast_roles(self):
        root_seq = generate_primitive_sequence(CollectiveKind.BROADCAST, 0, 4, 1024, root=0)
        tail_seq = generate_primitive_sequence(CollectiveKind.BROADCAST, 3, 4, 1024, root=0)
        mid_seq = generate_primitive_sequence(CollectiveKind.BROADCAST, 1, 4, 1024, root=0)
        assert root_seq[0].name == "send"
        assert tail_seq[0].name == "recv"
        assert mid_seq[0].name == "recvCopySend"

    def test_reduce_roles(self):
        root_seq = generate_primitive_sequence(CollectiveKind.REDUCE, 0, 4, 1024, root=0)
        start_seq = generate_primitive_sequence(CollectiveKind.REDUCE, 1, 4, 1024, root=0)
        assert root_seq[0].name == "recvReduceCopy"
        assert start_seq[0].name == "send"

    def test_invalid_rank_rejected(self):
        with pytest.raises(Exception):
            generate_primitive_sequence(CollectiveKind.ALL_REDUCE, 9, 4, 1024)

    @given(st.sampled_from(list(CollectiveKind)), st.integers(2, 12),
           st.integers(1, 1 << 22))
    @settings(max_examples=60, deadline=None)
    def test_sequences_balanced_across_ring(self, kind, group_size, nbytes):
        """Every send in the ring has a matching recv on the next rank."""
        if kind is CollectiveKind.SEND_RECV:
            group_size = 2
        sequences = {
            rank: generate_primitive_sequence(kind, rank, group_size, nbytes)
            for rank in range(group_size)
        }
        total_sends = sum(
            1 for seq in sequences.values() for prim in seq if prim.sends
        )
        total_recvs = sum(
            1 for seq in sequences.values() for prim in seq if prim.recvs
        )
        assert total_sends == total_recvs


#: SHA-1 over the identity of every primitive :func:`_sequence_digest`
#: compiles.  It pins every builder's output exactly (names, actions, loops,
#: steps, chunk indices, bytes, peers); change it only with a deliberate
#: schedule change.
SEQUENCE_DIGEST = "11b576f887ccaf3726511f2390a44349fb163911"


def _digest_space():
    """Every primitive of every kind x ring/tree/hierarchical x n in
    {2, 3, 4, 7, 16, 33} x every rank, at a one-loop and a many-loop
    payload."""
    for kind in CollectiveKind:
        for algorithm in ("ring", "tree", "hierarchical"):
            for size in (2, 3, 4, 7, 16, 33):
                island = next((d for d in range(2, size) if size % d == 0), None)
                for nbytes in (1000, (3 << 20) + 5):
                    for rank in range(size):
                        yield from generate_primitive_sequence(
                            kind, rank, size, nbytes, algorithm=algorithm,
                            island_size=island, root=size - 1)


def _sequence_digest():
    digest = hashlib.sha1()
    count = 0
    for primitive in _digest_space():
        name, action, *rest = primitive._identity()
        digest.update(repr((name, action.value, *rest)).encode())
        count += 1
    return digest.hexdigest(), count


def test_compiled_sequences_match_the_pinned_digest():
    assert _sequence_digest() == (SEQUENCE_DIGEST, 72663)


class TestCompactPrimitives:
    """A compiled primitive stores seven fields and shared ints."""

    def test_peers_are_set_exactly_when_the_action_sends_or_receives(self):
        # ``burst`` tests peer presence instead of the action bits.
        assert len(set(PRIMITIVE_NAMES.values())) == len(PRIMITIVE_NAMES)
        for primitive in _digest_space():
            assert (primitive.send_peer is not None) == primitive.sends
            assert (primitive.recv_peer is not None) == primitive.recvs
            assert primitive.name == PRIMITIVE_NAMES[primitive.action]

    @pytest.mark.parametrize("kind,algorithm,chunk_bytes", [
        (CollectiveKind.ALL_REDUCE, "ring", 512),
        (CollectiveKind.ALL_REDUCE, "hierarchical", 7),  # 293 loops
        (CollectiveKind.ALL_REDUCE, "tree", 512),
        (CollectiveKind.ALL_TO_ALL, "ring", 512),
        (CollectiveKind.BROADCAST, "ring", 512),
    ])
    def test_equal_step_and_chunk_values_are_one_object(self, kind, algorithm,
                                                        chunk_bytes):
        shared = {}
        for rank in (0, 300):
            for primitive in generate_primitive_sequence(
                    kind, rank, 512, 1 << 20, chunk_bytes=chunk_bytes,
                    algorithm=algorithm, island_size=8):
                for value in (primitive.loop, primitive.step,
                              primitive.chunk_index):
                    assert shared.setdefault(value, value) is value
        assert max(shared) > 256  # beyond CPython's small-int cache

    def test_a_compiled_primitive_costs_at_most_112_traced_bytes(self):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sequences = [generate_primitive_sequence(
                CollectiveKind.ALL_REDUCE, rank, 512, 1 << 20)
                for rank in range(0, 512, 64)]
            traced = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        count = sum(map(len, sequences))
        assert count == 8 * 1023
        assert traced / count <= 112


class TestPrimitiveExecutor:
    def _executors(self, kind=CollectiveKind.ALL_REDUCE, group_size=4, nbytes=4096):
        comm = make_communicator(group_size)
        executors = []
        for rank in range(group_size):
            sequence = generate_primitive_sequence(kind, rank, group_size, nbytes)
            executors.append(PrimitiveExecutor(0, rank, comm, sequence))
        return executors

    def test_round_robin_execution_completes(self):
        executors = self._executors()
        clocks = [VirtualClock() for _ in executors]
        for _ in range(1000):
            if all(executor.done() for executor in executors):
                break
            for executor, clock in zip(executors, clocks):
                executor.burst(clock)
        assert all(executor.done() for executor in executors)

    def test_wait_recv_reported_when_channel_empty(self):
        executors = self._executors()
        clock = VirtualClock()
        # First primitive (send) succeeds, second (recvReduceSend) must wait.
        executed, outcome = executors[0].burst(clock)
        assert (executed, outcome.outcome) == (1, ExecOutcome.SUCCESS)
        executed, outcome = executors[0].burst(clock)
        assert (executed, outcome.outcome) == (0, ExecOutcome.WAIT_RECV)
        assert outcome.wait_key is not None

    def test_all_done_outcome(self):
        comm = make_communicator(1)
        sequence = generate_primitive_sequence(CollectiveKind.ALL_REDUCE, 0, 1, 64)
        executor = PrimitiveExecutor(0, 0, comm, sequence)
        clock = VirtualClock()
        executed, outcome = executor.burst(clock, limit=2)
        assert (executed, outcome.outcome) == (1, ExecOutcome.ALL_DONE)
        executed, outcome = executor.burst(clock)
        assert (executed, outcome.outcome) == (0, ExecOutcome.ALL_DONE)


class _BurstWorld:
    """One executor mid-sequence, its channels filled at random, and an
    engine stand-in that records every signal.  Two worlds built from one
    seed are identical, so one can run bursts and the other single steps."""

    def __init__(self, seed):
        rng = random.Random(seed)
        kind = rng.choice(list(CollectiveKind))
        size = 2 if kind is CollectiveKind.SEND_RECV else rng.randint(2, 8)
        rank = rng.randrange(size)
        sequence = generate_primitive_sequence(
            kind, rank, size, rng.choice((4096, 1 << 20, 3 << 20)),
            algorithm=rng.choice(("ring", "tree", "hierarchical")),
            island_size=2 if size % 2 == 0 else None)
        cluster = build_cluster("dual-3090")
        self.devices = cluster.devices[:size]
        self.interconnect = cluster.interconnect
        comm = Communicator(self.devices, cluster.interconnect)
        self.executor = PrimitiveExecutor(7, rank, comm, sequence)
        self.executor.position = rng.randrange(len(sequence) // 2 + 1)
        self.executor.trace = array("d")
        self.clock = VirtualClock(rng.uniform(0.0, 50.0))
        self.channels = {}
        for peer in range(size):
            if peer != rank:
                for pair in ((peer, rank), (rank, peer)):
                    self.channels[pair] = comm.channel(*pair)
        self.pairs = {channel.channel_id: pair
                      for pair, channel in self.channels.items()}
        self.signals = []
        self.waiters_by_key = {}

    # -- the engine interface the executor uses --------------------------------

    def signal(self, key, time_us):
        self.signals.append((self.name(key), time_us, self.clock.now))

    def name(self, key):
        return None if key is None else (key[0], self.pairs[key[1]])

    # -- a round ----------------------------------------------------------------

    def disturb(self, rng):
        """Drain and refill the channels, resize them, invalidate one now
        and then, register waiters and bump the link epoch, all drawn from
        ``rng``."""
        if rng.random() < 0.4:
            self.interconnect.degrade_device_links(
                rng.choice(self.devices).device_id,
                beta_factor=rng.choice((2.0, 8.0)))
        self.clock.now += rng.uniform(0.0, 5.0)
        keys = []
        for channel in self.channels.values():
            if rng.random() < 0.01:
                channel.invalidate()
            channel.capacity = rng.randint(1, 8)
            target = 0 if channel.invalidated else rng.randint(0, channel.capacity)
            arrivals = channel.arrivals
            while len(arrivals) > target:
                arrivals.popleft()
            while len(arrivals) < target:
                arrivals.append(self.clock.now + rng.uniform(-20.0, 30.0))
            keys += [channel.readable_key, channel.writable_key]
        self.waiters_by_key = {key: None for key in keys if rng.random() < 0.5}

    def state(self):
        executor = self.executor
        channels = {
            pair: (list(channel.arrivals), channel.pushed_count,
                   channel.bytes_pushed, channel.invalidated)
            for pair, channel in self.channels.items()
        }
        return (executor.position, executor.executed_primitives,
                self.clock.now, channels, list(self.signals),
                list(executor.trace))

    def busy_times(self, start, stop):
        """The cost model's busy time of each primitive in ``[start, stop)``
        over the links as they are now."""
        executor = self.executor
        times = []
        for primitive in executor.primitives[start:stop]:
            sends = primitive.sends and primitive.send_peer is not None
            link = executor.communicator.link(
                executor.group_rank, primitive.send_peer) if sends else None
            times.append(executor.cost_model.primitive_time_us(
                primitive.nbytes, link=link, sends=sends,
                touches_memory=primitive.touches_memory))
        return times

    def describe(self, outcome):
        primitive = outcome.primitive
        return (outcome.outcome, primitive and primitive._identity(),
                self.name(outcome.wait_key))


def _single_bursts(world, limit, max_wait_us, success_wait_us):
    """``limit`` one-primitive bursts, stopping at the first failure."""
    executed, wait = 0, max_wait_us
    while executed < limit:
        count, outcome = world.executor.burst(world.clock, world, 1, wait)
        if not count:
            return executed, outcome
        executed += 1
        wait = success_wait_us
    return executed, outcome


class TestBurst:
    @given(st.integers(0, 2 ** 32))
    @settings(max_examples=120, deadline=None)
    def test_burst_equals_single_primitive_bursts(self, seed):
        whole, single = _BurstWorld(seed), _BurstWorld(seed)
        rng = random.Random(seed)
        for _ in range(6):
            round_seed = rng.random()
            whole.disturb(random.Random(round_seed))
            single.disturb(random.Random(round_seed))
            limit = rng.choice((rng.randint(1, 10),
                                max(1, whole.executor.remaining)))
            max_wait_us, success_wait_us = (
                rng.choice((None, None, 0.0, rng.uniform(0.0, 40.0)))
                for _ in range(2))
            start = whole.executor.position
            executed, outcome = whole.executor.burst(
                whole.clock, whole, limit, max_wait_us, success_wait_us)
            expected, expected_outcome = _single_bursts(
                single, limit, max_wait_us, success_wait_us)
            assert executed == expected
            assert whole.describe(outcome) == single.describe(expected_outcome)
            assert whole.state() == single.state()
            assert all(now == time_us for _, time_us, now in whole.signals)
            busy = list(whole.executor.trace)[2::3]
            assert busy[len(busy) - executed:] == whole.busy_times(
                start, start + executed)

    def test_last_primitive_at_the_limit_is_a_success(self):
        # Like `limit` single bursts: ALL_DONE is only reported by an attempt
        # after the last primitive, never by the one that executes it.
        comm = make_communicator(1)
        sequence = generate_primitive_sequence(
            CollectiveKind.ALL_GATHER, 0, 1, 64) * 5
        executor = PrimitiveExecutor(0, 0, comm, sequence)
        clock = VirtualClock()
        executed, outcome = executor.burst(clock, limit=3)
        assert (executed, outcome.outcome) == (3, ExecOutcome.SUCCESS)
        executed, outcome = executor.burst(clock, limit=2)
        assert (executed, outcome.outcome) == (2, ExecOutcome.SUCCESS)
        executed, outcome = executor.burst(clock, limit=2)
        assert (executed, outcome.outcome) == (0, ExecOutcome.ALL_DONE)
        assert executor.position == 5 and clock.now > 0.0


class TestCostModel:
    def test_primitive_time_includes_overhead(self):
        model = CostModel()
        assert model.primitive_time_us(0) >= model.primitive_overhead_us

    def test_transfer_dominates_for_slow_link(self):
        from repro.gpusim.interconnect import LinkSpec
        from repro.common.types import LinkType
        model = CostModel()
        link = LinkSpec.of(LinkType.RDMA)
        with_send = model.primitive_time_us(1 << 20, link=link, sends=True)
        without = model.primitive_time_us(1 << 20, link=None, sends=False)
        assert with_send > without


class TestTreeRelations:
    def test_binary_tree_heap_shape(self):
        from repro.collectives import binary_tree_relations
        parent, children = binary_tree_relations(0, 7)
        assert parent is None
        assert children == [1, 2]
        parent, children = binary_tree_relations(1, 7)
        assert parent == 0
        assert children == [3, 4]

    def test_mirror_tree_flips_roles(self):
        from repro.collectives import binary_tree_relations
        parent, children = binary_tree_relations(6, 7, mirror=True)
        assert parent is None  # rank n-1 is the mirror-tree root
        parent, _ = binary_tree_relations(0, 7, mirror=True)
        assert parent is not None

    def test_double_tree_interior_leaf_balance(self):
        """No rank is interior in both trees: the interior work of the two
        complementary trees lands on disjoint rank sets."""
        from repro.collectives import binary_tree_relations
        for size in (7, 8, 15, 16):
            for rank in range(size):
                _, children0 = binary_tree_relations(rank, size)
                _, children1 = binary_tree_relations(rank, size, mirror=True)
                assert not (children0 and children1)

    def test_binomial_tree_parents(self):
        from repro.collectives import binomial_tree_relations
        parent, children = binomial_tree_relations(0, 8, root=0)
        assert parent is None
        assert sorted(children) == [1, 2, 4]
        parent, _ = binomial_tree_relations(5, 8, root=0)
        assert parent == 1  # 5 = 0b101 -> clear high bit -> 1

    def test_binomial_tree_respects_root(self):
        from repro.collectives import binomial_tree_relations
        parent, _ = binomial_tree_relations(3, 8, root=3)
        assert parent is None

    def test_binomial_edges_cover_all_ranks(self):
        from repro.collectives import binomial_tree_relations
        for size in (2, 3, 5, 8, 13):
            for root in (0, 1):
                seen = set()
                for rank in range(size):
                    parent, _ = binomial_tree_relations(rank, size, root=root)
                    if parent is None:
                        seen.add(rank)
                    else:
                        seen.add(rank)
                        assert 0 <= parent < size
                assert seen == set(range(size))


class TestTreeSequences:
    def test_tree_allreduce_root_structure(self):
        sequence = generate_primitive_sequence(
            CollectiveKind.ALL_REDUCE, 0, 8, 1024, algorithm="tree")
        names = [primitive.name for primitive in sequence]
        # Small payload: single tree; the heap root reduces both children then
        # broadcasts back down.
        assert names == ["recvReduceCopy", "recvReduceCopy", "send", "send"]

    def test_tree_allreduce_leaf_structure(self):
        sequence = generate_primitive_sequence(
            CollectiveKind.ALL_REDUCE, 7, 8, 1024, algorithm="tree")
        names = [primitive.name for primitive in sequence]
        assert names == ["send", "recv"]

    def test_tree_allreduce_splits_large_payloads(self):
        from repro.collectives.sequences import TREE_SPLIT_MIN_BYTES
        small = generate_primitive_sequence(
            CollectiveKind.ALL_REDUCE, 0, 8, 1024, algorithm="tree")
        large = generate_primitive_sequence(
            CollectiveKind.ALL_REDUCE, 0, 8, TREE_SPLIT_MIN_BYTES,
            algorithm="tree", chunk_bytes=TREE_SPLIT_MIN_BYTES)
        # Above the split threshold the rank participates in both trees.
        assert len(large) > len(small)

    def test_tree_broadcast_roles(self):
        root_seq = generate_primitive_sequence(
            CollectiveKind.BROADCAST, 0, 8, 1024, algorithm="tree")
        assert all(primitive.name == "send" for primitive in root_seq)
        leaf_seq = generate_primitive_sequence(
            CollectiveKind.BROADCAST, 7, 8, 1024, algorithm="tree")
        assert [primitive.name for primitive in leaf_seq] == ["recv"]

    def test_tree_falls_back_to_ring_for_all_gather(self):
        ring = generate_primitive_sequence(
            CollectiveKind.ALL_GATHER, 2, 8, 4096, algorithm="ring")
        tree = generate_primitive_sequence(
            CollectiveKind.ALL_GATHER, 2, 8, 4096, algorithm="tree")
        assert [p.name for p in ring] == [p.name for p in tree]

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(Exception):
            generate_primitive_sequence(
                CollectiveKind.ALL_REDUCE, 0, 8, 1024, algorithm="butterfly")

    @given(st.sampled_from([CollectiveKind.ALL_REDUCE, CollectiveKind.BROADCAST,
                            CollectiveKind.REDUCE]),
           st.integers(2, 17), st.integers(1, 1 << 16), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_tree_moves_byte_identical_totals_to_ring(self, kind, group_size,
                                                      per_rank_bytes, root):
        """Tree sequences deliver exactly the bytes the ring delivers.

        The totals of received and reduced bytes across all ranks are
        algorithm-invariant (payload chosen divisible by the group size so
        the ring's slice padding does not kick in).
        """
        nbytes = per_rank_bytes * group_size
        root = root % group_size

        def totals(algorithm):
            recv_bytes = reduce_bytes = 0
            for rank in range(group_size):
                sequence = generate_primitive_sequence(
                    kind, rank, group_size, nbytes, chunk_bytes=1 << 30,
                    root=root, algorithm=algorithm)
                for primitive in sequence:
                    if primitive.action & PrimitiveAction.RECV:
                        recv_bytes += primitive.nbytes
                    if primitive.action & PrimitiveAction.REDUCE:
                        reduce_bytes += primitive.nbytes
            return recv_bytes, reduce_bytes

        assert totals("tree") == totals("ring")

    @given(st.sampled_from([CollectiveKind.ALL_REDUCE, CollectiveKind.BROADCAST,
                            CollectiveKind.REDUCE]),
           st.integers(2, 16), st.integers(1, 1 << 19))
    @settings(max_examples=25, deadline=None)
    def test_tree_sequences_run_to_completion(self, kind, group_size, nbytes):
        """Every rank's tree sequence completes under round-robin execution
        (no deadlock or livelock among the generated primitives)."""
        cluster = build_cluster("dual-3090")
        comm = Communicator(cluster.devices[:group_size], cluster.interconnect)
        executors = []
        for rank in range(group_size):
            sequence = generate_primitive_sequence(
                kind, rank, group_size, nbytes, algorithm="tree")
            executors.append(PrimitiveExecutor(0, rank, comm, sequence))
        clocks = [VirtualClock() for _ in executors]
        for _ in range(20_000):
            if all(executor.done() for executor in executors):
                break
            for executor, clock in zip(executors, clocks):
                executor.burst(clock)
        assert all(executor.done() for executor in executors)
