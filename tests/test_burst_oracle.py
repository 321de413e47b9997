"""The run-walking ``PrimitiveExecutor.burst`` against a per-primitive oracle.

``burst`` walks a compiled schedule segment by segment, loop by loop and run
by run, resolving channels and busy time once per run.  The reference below
is the plain reading of the data-plane rules: it reads one primitive view of
``executor.primitives`` per attempt and resolves its channels, link and busy
time from scratch.  Both run the same rounds of the :class:`_BurstWorld`
disturbances (refilled and resized channels, invalidations, registered
waiters, link degradations that bump the link epoch) and, now and then, a
position moved from outside, over the schedule shapes whose runs and loop
bodies are easiest to get wrong.
"""

import random
from array import array

import pytest

from repro.collectives import (
    Communicator,
    ExecOutcome,
    Primitive,
    PrimitiveExecutor,
    generate_primitive_sequence,
)
from repro.collectives.cost import primitive_time_us
from repro.collectives.primitives import PRIMITIVES_PER_STEP
from repro.collectives.sequences import TREE_SPLIT_MIN_BYTES
from repro.common.types import CollectiveKind
from repro.common.vtime import VirtualClock
from repro.gpusim.cluster import build_cluster

from test_collectives import _BurstWorld

#: ``(kind, size, rank, nbytes, options)`` of each compiled schedule.
CASES = {
    # n == 2: the ring runs of count n - 2 are zero and dropped.
    "ring-all-reduce-n2": (CollectiveKind.ALL_REDUCE, 2, 1, (3 << 20) + 5,
                           {"chunk_bytes": 256 << 10}),
    "ring-reduce-scatter-n2": (CollectiveKind.REDUCE_SCATTER, 2, 0,
                               (1 << 20) + 3, {"chunk_bytes": 128 << 10}),
    "ring-all-gather-n2": (CollectiveKind.ALL_GATHER, 2, 1, (1 << 20) + 3,
                           {"chunk_bytes": 128 << 10}),
    # Three 1 MB loops and a 1-byte-per-slice tail, through three passes.
    "hierarchical-ragged-tail": (CollectiveKind.ALL_REDUCE, 8, 5, (3 << 20) + 5,
                                 {"algorithm": "hierarchical", "island_size": 4}),
    # Full loops split across both trees, the tail through the first only.
    "tree-unsplit-tail": (CollectiveKind.ALL_REDUCE, 7, 2,
                          2 * (512 << 10) + TREE_SPLIT_MIN_BYTES // 2,
                          {"algorithm": "tree", "chunk_bytes": 512 << 10}),
    "all-to-all": (CollectiveKind.ALL_TO_ALL, 6, 4, (1 << 20) + 7,
                   {"chunk_bytes": 64 << 10}),
    "broadcast-chain": (CollectiveKind.BROADCAST, 5, 3, (1 << 20) + 9,
                        {"root": 2}),
    "reduce-chain": (CollectiveKind.REDUCE, 5, 1, (1 << 20) + 9, {"root": 4}),
    "reduce-chain-root": (CollectiveKind.REDUCE, 4, 3, (1 << 20) + 9,
                          {"root": 3}),
    "send-recv": (CollectiveKind.SEND_RECV, 2, 1, (1 << 20) + 9, {}),
    # Runs of n - 2 = 14 recv+send primitives, longer than a step's limit.
    "ring-all-reduce-n16": (CollectiveKind.ALL_REDUCE, 16, 5, (3 << 20) + 5,
                            {"chunk_bytes": 64 << 10}),
}


class _CaseWorld(_BurstWorld):
    """A :class:`_BurstWorld` over one given schedule, its executor placed
    anywhere in it and its clock dilated at random."""

    def __init__(self, seed, case):
        kind, size, rank, nbytes, options = case
        rng = random.Random(seed)
        sequence = generate_primitive_sequence(kind, rank, size, nbytes,
                                               **options)
        cluster = build_cluster("dual-3090")
        self.devices = cluster.devices[:size]
        self.interconnect = cluster.interconnect
        comm = Communicator(self.devices, cluster.interconnect)
        self.executor = PrimitiveExecutor(rank, comm, sequence)
        self.executor.position = rng.randrange(len(sequence))
        self.executor.trace = array("d")
        self.clock = VirtualClock(rng.uniform(0.0, 50.0),
                                  rate=rng.choice((1.0, 1.0, 1.7)))
        self.channels = {}
        for peer in range(size):
            if peer != rank:
                for pair in ((peer, rank), (rank, peer)):
                    self.channels[pair] = comm.channel(*pair)
        self.pairs = {channel.channel_id: pair
                      for pair, channel in self.channels.items()}
        self.signals = []
        self.waiters_by_key = {}


class _ReferenceOutcome:
    """What a reference attempt stopped on, shaped for ``describe``."""

    def __init__(self, outcome, primitive=None, wait_key=None):
        self.outcome = outcome
        self.primitive = primitive
        self.wait_key = wait_key


def _reference_burst(world, limit, max_wait_us, success_wait_us):
    """``burst`` one primitive view at a time, nothing cached."""
    executor, clock = world.executor, world.clock
    communicator, rank = executor.communicator, executor.group_rank
    executed, max_wait = 0, max_wait_us
    while True:
        if executed == limit:
            return executed, _ReferenceOutcome(ExecOutcome.SUCCESS)
        if executor.position >= len(executor.primitives):
            return executed, _ReferenceOutcome(ExecOutcome.ALL_DONE)
        primitive = executor.primitives[executor.position]
        receives = sends = link = None
        if primitive.recvs:
            receives = communicator.channel(primitive.recv_peer, rank)
            arrivals = receives.arrivals
            if receives.invalidated or not arrivals or (
                    max_wait is not None and arrivals[0] > clock.now + max_wait):
                return executed, _ReferenceOutcome(
                    ExecOutcome.WAIT_RECV, primitive, receives.readable_key)
        if primitive.sends:
            sends = communicator.channel(rank, primitive.send_peer)
            if sends.invalidated or len(sends.arrivals) >= sends.capacity:
                return executed, _ReferenceOutcome(
                    ExecOutcome.WAIT_SEND, primitive, sends.writable_key)
            link = communicator.link(rank, primitive.send_peer)
        busy = primitive_time_us(primitive.nbytes, link,
                                 primitive.touches_memory)
        start = clock.now
        if receives is not None:
            clock.now = max(clock.now, receives.arrivals.popleft())
            if receives.writable_key in world.waiters_by_key:
                world.signal(receives.writable_key, clock.now)
        clock.now += busy * clock.rate
        if sends is not None:
            sends.arrivals.append(clock.now)
            sends.pushed_count += 1
            sends.bytes_pushed += primitive.nbytes
            if sends.readable_key in world.waiters_by_key:
                world.signal(sends.readable_key, clock.now)
        executor.trace.extend((start, clock.now, busy))
        executor.position += 1
        executed += 1
        max_wait = success_wait_us


def _rounds(case, seed, rounds=8, traced=True):
    """Run ``rounds`` disturbed bursts on the executor and on the reference,
    checking that they agree after each.  Untraced, the executor bursts
    with no trace attached (as every benchmark runs) and the traces are not
    compared."""
    real, reference = _CaseWorld(seed, case), _CaseWorld(seed, case)
    rng = random.Random(seed)
    for _ in range(rounds):
        round_seed = rng.random()
        real.disturb(random.Random(round_seed))
        reference.disturb(random.Random(round_seed))
        if rng.random() < 0.2:
            position = rng.randrange(len(real.executor.primitives) + 1)
            real.executor.position = reference.executor.position = position
        limit = rng.choice((rng.randint(1, 10),
                            max(1, real.executor.remaining)))
        max_wait_us, success_wait_us = (
            rng.choice((None, None, 0.0, rng.uniform(0.0, 40.0)))
            for _ in range(2))
        trace = real.executor.trace
        if not traced:
            real.executor.trace = None
        executed, outcome = real.executor.burst(
            real.clock, real, limit, max_wait_us, success_wait_us)
        real.executor.trace = trace
        expected, expected_outcome = _reference_burst(
            reference, limit, max_wait_us, success_wait_us)
        assert executed == expected
        assert real.describe(outcome) == reference.describe(expected_outcome)
        if traced:
            assert real.state() == reference.state()
        else:
            assert real.state()[:-1] == reference.state()[:-1]
            assert not trace


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_walking_burst_equals_the_per_primitive_reference(name):
    for seed in range(40):
        _rounds(CASES[name], seed)


@pytest.mark.parametrize("name", sorted(CASES))
def test_untraced_burst_equals_the_per_primitive_reference(name):
    for seed in range(40):
        _rounds(CASES[name], seed, traced=False)


def test_the_long_ring_runs_exceed_a_steps_limit():
    kind, size, rank, nbytes, options = CASES["ring-all-reduce-n16"]
    ring = generate_primitive_sequence(kind, rank, size, nbytes, **options)
    counts = {run[1] for _, _, body in ring.segments for run in body}
    assert max(counts) == 14 > PRIMITIVES_PER_STEP


def test_the_cases_cover_the_shapes_they_name():
    """Dropped zero-count runs, a ragged tail body and an unsplit tree tail
    are what the cases above are there for."""
    def schedule(name):
        kind, size, rank, nbytes, options = CASES[name]
        return generate_primitive_sequence(kind, rank, size, nbytes, **options)

    ring = schedule("ring-all-reduce-n2")
    assert [(loops, len(body)) for _, loops, body in ring.segments] == [
        (6, 3), (1, 3)]
    assert len(ring) == 7 * 3
    hierarchical = schedule("hierarchical-ragged-tail").segments
    assert [loops for _, loops, _ in hierarchical] == [3, 1]
    assert hierarchical[0][2] != hierarchical[1][2]
    tree = schedule("tree-unsplit-tail").segments
    assert [loops for _, loops, _ in tree] == [2, 1]
    assert {run[4] for run in tree[0][2]} == {256 << 10}  # half a loop
    assert {run[4] for run in tree[1][2]} == {TREE_SPLIT_MIN_BYTES // 2}


def test_burst_builds_no_primitive(monkeypatch):
    """Compiling and bursting read runs only: no view is built unless one is
    asked for."""
    built = []
    init = Primitive.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Primitive, "__init__", counting_init)
    for name, case in sorted(CASES.items()):
        world = _CaseWorld(0, case)
        rng = random.Random(name)
        for _ in range(6):
            world.disturb(rng)
            world.executor.burst(world.clock, world, 8, rng.uniform(0.0, 40.0))
    assert built == []
