"""CollectivePlan: each collective resolved once per membership, transparently.

A plan holds the membership-derived state of one collective (active ranks,
rank maps, island size, algorithm, cost prediction).  These tests pin that it
changes nothing: every executor's sequence equals a fresh
``generate_primitive_sequence`` call with the arguments the pre-plan code
passed, invocations of one generation share one plan, and a shrink or grow
replaces it with one resolved for the new membership.
"""

import math

import pytest

from repro.api import make_backend
from repro.api.nccl_adapter import NcclCollectiveBackend
from repro.collectives import (
    AlgorithmSelector,
    generate_primitive_sequence,
    hierarchical_island_size,
)
from repro.collectives.plan import CollectivePlan
from repro.common.errors import ConfigurationError
from repro.common.types import CollectiveKind, CollectiveSpec
from repro.core import DfcclConfig
from repro.core.registration import Invocation
from repro.faults import FaultPlan, install_fault_plan
from repro.gpusim import HostProgram, build_cluster
from repro.gpusim.host import CpuCompute
from repro.ncclsim.ops import NcclCollectiveOp
from repro.testing import replay_program
from repro.testing.fuzz import program_at

pytestmark = pytest.mark.timeout(300)


def _reference_dfccl(coll, group_rank, participants=None):
    """One DFCCL rank's sequence, compiled from scratch (no plan)."""
    if participants is None:
        participants = [rank for rank in range(coll.group_size)
                        if rank not in coll.excluded_ranks]
    participants = list(participants)
    root = (participants.index(coll.spec.root)
            if coll.spec.root in participants else 0)
    return generate_primitive_sequence(
        coll.spec.kind, participants.index(group_rank), len(participants),
        coll.spec.nbytes, chunk_bytes=coll.config.chunk_bytes, root=root,
        algorithm=coll.plan.algorithm,
        island_size=hierarchical_island_size(
            coll.devices[rank].device_id.node for rank in participants),
    )


def _reference_nccl(op, group_rank):
    """One NCCL rank's sequence, compiled from scratch (no plan)."""
    return generate_primitive_sequence(
        op.spec.kind, group_rank, op.group_size, op.spec.nbytes,
        chunk_bytes=op.plan.chunk_bytes, root=op.spec.root,
        algorithm=op.algorithm,
        island_size=hierarchical_island_size(
            device.device_id.node for device in op.devices),
    )


@pytest.fixture
def built(monkeypatch):
    """Every executor compiled, with its from-scratch sequence and its plan."""
    records = []
    compile_dfccl = Invocation._compile
    compile_nccl = NcclCollectiveOp._compile

    def recording_compile_dfccl(invocation, group_rank):
        executor = compile_dfccl(invocation, group_rank)
        # A re-running rank compiles against the re-run subset.
        rerun = invocation._rerun_ranks
        participants = (rerun if rerun is not None and group_rank in rerun
                        else None)
        records.append((executor, _reference_dfccl(invocation.coll, group_rank,
                                                   participants),
                        invocation.plan))
        return executor

    def recording_compile_nccl(op, group_rank):
        executor = compile_nccl(op, group_rank)
        records.append((executor, _reference_nccl(op, group_rank), op.plan))
        return executor

    monkeypatch.setattr(Invocation, "_compile", recording_compile_dfccl)
    monkeypatch.setattr(NcclCollectiveOp, "_compile", recording_compile_nccl)
    return records


def _assert_fresh(records):
    assert records
    for executor, expected, _ in records:
        assert list(executor.primitives) == expected


def test_fuzz_stream_sequences_match_fresh_compiles(built):
    """Fuzz stream 0, programs 0-49, on both sequence-compiling backends."""
    for index in range(50):
        program = program_at(0, index)
        backends = ("dfccl",) if program.has_faults else ("dfccl", "nccl")
        for backend in backends:
            replay_program(program, backend)
    _assert_fresh(built)
    assert all(math.isfinite(plan.predicted_cost_us) for _, _, plan in built)


def test_inapplicable_hierarchical_plan_is_priced_as_the_ring():
    """Ranks 0-3 of the dual server share one node: no island decomposition,
    so the hierarchical hint runs (and is priced as) the flat ring."""
    cluster = build_cluster("dual-3090")
    spec = CollectiveSpec(CollectiveKind.ALL_REDUCE, 1 << 20)
    ring, hierarchical = (
        CollectivePlan(spec, cluster.devices[:4], cluster.interconnect,
                       algorithm, DfcclConfig().chunk_bytes)
        for algorithm in ("ring", "hierarchical"))
    assert hierarchical.island_size is None
    assert hierarchical.predicted_breakdown == ring.predicted_breakdown
    assert hierarchical.predicted_cost_us == ring.predicted_cost_us
    assert math.isfinite(ring.predicted_cost_us)


def test_plan_prices_and_picks_at_its_own_chunk_size():
    """Fuzz program 296 broadcasts 64 KiB in 16 KiB chunks under ``auto``.

    The tree broadcast/reduce formulas price one loop per chunk, so the plan
    must hand its chunk size to the selector: at the selector's 128 KiB
    default the tree looks like one loop and wins; at 16 KiB the ring does.
    """
    program = program_at(0, 296)
    call = next(call for call in program.calls if call.kind == "broadcast")
    spec = CollectiveSpec(CollectiveKind(call.kind), call.count, root=call.root)
    cluster = build_cluster(program.topology)
    devices = [cluster.device(rank) for rank in program.groups[0].ranks]
    device_ids = [device.device_id for device in devices]
    plan = CollectivePlan(spec, devices, cluster.interconnect,
                          program.algorithm, program.chunk_bytes)
    selector = AlgorithmSelector(cluster.interconnect,
                                 chunk_bytes=plan.chunk_bytes)
    algorithm = selector.resolve(program.algorithm, spec.kind, spec.nbytes,
                                 len(devices), device_ids)
    assert plan.chunk_bytes == 16 << 10
    assert plan.algorithm == algorithm == "ring"
    assert plan.predicted_cost_us == sum(selector.predicted_cost_breakdown(
        algorithm, spec.kind, spec.nbytes, len(devices), device_ids).values())


@pytest.mark.parametrize("chunk_bytes", [0, -4096])
@pytest.mark.parametrize("backend", ["dfccl", "nccl"])
def test_non_positive_chunk_bytes_rejected(backend, chunk_bytes):
    """Every plan checks its chunk size, so neither backend divides by zero,
    falls back to a default or compiles 1-byte primitives."""
    cluster = build_cluster("single-3090")
    group = make_backend(backend, cluster, chunk_bytes=chunk_bytes).new_group([0, 1])
    with pytest.raises(ConfigurationError, match="chunk_bytes"):
        group.all_reduce(0, count=1 << 16)


@pytest.mark.parametrize("backend", ["dfccl", "nccl"])
def test_invocations_share_one_plan(built, backend):
    cluster = build_cluster("dual-3090")
    api_backend = make_backend(backend, cluster, algorithm="hierarchical")
    group = api_backend.new_group(list(range(16)))
    spec = CollectiveSpec(CollectiveKind.ALL_REDUCE, 1 << 16)
    works = {rank: [group.collective(rank, spec) for _ in range(2)]
             for rank in group.ranks}
    cluster.add_hosts([
        HostProgram([op for work in works[rank] for op in work.ops()]
                    + api_backend.finalize_ops(rank))
        for rank in group.ranks
    ])
    cluster.run()
    _assert_fresh(built)
    for rank, (first, second) in works.items():
        assert first.done and second.done
        one = first.run.executor_if_cached(rank)
        two = second.run.executor_if_cached(rank)
        assert one is not two
        assert one.primitives == two.primitives
    assert len({id(plan) for _, _, plan in built}) == 1
    assert built[0][2].island_size == 8


def test_subset_participants_use_their_own_islands():
    """A rank placed in a subset of the members gets the subset's dense rank
    and islands, not the plan's."""
    cluster = build_cluster("dual-3090")
    group = make_backend("dfccl", cluster, algorithm="hierarchical").new_group(
        list(range(16)))
    coll = group.all_reduce(0, count=1 << 16).run.coll
    plan = coll.plan
    assert plan.island_size == 8
    subset = (0, 1, 2, 3, 8, 9, 10, 11)
    assert hierarchical_island_size(
        coll.devices[rank].device_id.node for rank in subset) == 4
    for rank in subset:
        assert plan.place(rank, subset) == (subset.index(rank), 8, 0, 4)


def test_place_rejects_non_participants_and_an_excluded_root():
    """A rank outside the participants has no place; neither does any rank
    of a rooted collective whose root is outside them, while an unrooted
    collective falls back to virtual root 0."""
    cluster = build_cluster("single-3090")
    devices = cluster.devices[:4]
    chunk_bytes = DfcclConfig().chunk_bytes
    reduce = CollectivePlan(CollectiveSpec(CollectiveKind.REDUCE, 1 << 12,
                                           root=1),
                            devices, cluster.interconnect, "ring", chunk_bytes,
                            excluded={1})
    assert reduce.active_ranks == (0, 2, 3)
    assert CollectiveKind.REDUCE.rooted and CollectiveKind.BROADCAST.rooted
    with pytest.raises(ConfigurationError, match="not a participant"):
        reduce.place(1)
    with pytest.raises(ConfigurationError, match="root 1"):
        reduce.place(0)
    with pytest.raises(ConfigurationError, match="not a participant"):
        reduce.place(2, participants=(0, 3))
    assert reduce.place(0, participants=(0, 1, 3)) == (0, 3, 1, None)
    assert not CollectiveKind.ALL_REDUCE.rooted
    all_reduce = CollectivePlan(CollectiveSpec(CollectiveKind.ALL_REDUCE,
                                               1 << 12),
                                devices, cluster.interconnect, "ring",
                                chunk_bytes, excluded={0})
    assert all_reduce.place(3) == (2, 3, 0, None)


def test_nccl_sequence_of_a_launched_rank_is_its_kernels_schedule(
        built, monkeypatch):
    """``primitive_sequence`` reads the executor the kernel ran: the same
    ``Schedule`` object, with no second compile."""
    kernels = {}
    make_kernel = NcclCollectiveBackend._make_kernel

    def recording_make_kernel(backend, work):
        kernel = kernels[work.group_rank] = make_kernel(backend, work)
        return kernel

    monkeypatch.setattr(NcclCollectiveBackend, "_make_kernel",
                        recording_make_kernel)
    cluster = build_cluster("single-3090")
    backend = make_backend("nccl", cluster)
    group = backend.new_group([0, 1, 2, 3])
    works = [group.all_reduce(rank, count=1 << 12) for rank in group.ranks]
    cluster.add_hosts([HostProgram(work.ops()) for work in works])
    cluster.run()
    assert len(built) == 4
    for work in works:
        kernel = kernels[work.group_rank]
        assert work.primitive_sequence() is kernel.executor.primitives
        assert work.run.executor_if_cached(work.group_rank) is kernel.executor
    assert len(built) == 4
    _assert_fresh(built)


def test_partial_rerun_and_later_invocations_compile_apart(built):
    """A re-run over a subset of the survivors shares the plan of the shrunk
    membership with later invocations, but compiles against the subset."""
    cluster = build_cluster("single-3090")
    backend = make_backend("dfccl", cluster)
    group = backend.new_group([0, 1, 2, 3])
    # A small chained reduce: rank 1 starts the chain and finishes at once.
    for rank in group.ranks:
        works = [group.reduce(rank, count=1 << 10, root=0) for _ in range(2)]
        cluster.add_host(rank, HostProgram([op for work in works
                                            for op in work.ops()]))
    coll = works[0].run.coll
    install_fault_plan(cluster, FaultPlan(name="crash").add_crash(2, at_us=5.0))
    recovered_at = cluster.run(until_us=200_000.0)
    survivors = coll.active_ranks()
    assert survivors == (0, 1, 3)
    assert coll.invocations[1]._rerun_ranks == (0, 3)
    for rank in survivors:
        work = group.reduce(rank, count=1 << 10, root=0)
        cluster.add_host(rank, HostProgram(work.ops() + backend.finalize_ops(rank)),
                         name=f"after-{rank}", start_time_us=recovered_at)
    cluster.run(until_us=400_000.0)
    assert coll.invocations[2].fully_complete()
    _assert_fresh(built)
    rerun = coll.invocations[1].executor_if_cached(0)
    later = coll.invocations[2].executor_if_cached(0)
    assert len(rerun.primitives) == len(later.primitives) == 1
    assert rerun.primitives[0] != later.primitives[0]


def test_shrink_replaces_the_plan(built):
    """Crash a rank and recover by shrinking: a new generation's plan."""
    cluster = build_cluster("fat-tree-32")
    backend = make_backend("dfccl", cluster, algorithm="hierarchical")
    ranks = list(range(16))
    group = backend.new_group(ranks)
    for rank in ranks:
        works = [group.all_reduce(rank, count=1 << 18) for _ in range(2)]
        # Rank 5 dies before it submits anything.
        ops = [CpuCompute(1_000.0)] if rank == 5 else []
        for work in works:
            ops += work.ops()
        cluster.add_host(rank, HostProgram(ops))
    coll = works[0].run.coll
    assert coll.plan.island_size == 8
    install_fault_plan(cluster, FaultPlan(name="crash").add_crash(5, at_us=10.0))
    cluster.run(until_us=200_000.0)
    first, second = coll.invocations
    survivors = coll.active_ranks()
    assert 5 not in survivors
    assert coll.plan.generation == 1
    # Fifteen survivors over two nodes: ragged islands, no two-level schedule.
    assert coll.plan.island_size is None
    assert first.fully_complete() and second.fully_complete()
    _assert_fresh(built)
    assert sorted({plan.generation for _, _, plan in built}) == [0, 1]
