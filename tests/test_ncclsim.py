"""Tests for the NCCL baseline, including the four basic Fig. 1 situations."""

import pytest

from repro.api import make_backend
from repro.common.errors import ConfigurationError, DeadlockError
from repro.gpusim import HostProgram, build_cluster
from repro.gpusim.host import DeviceSynchronize
from repro.ncclsim import grid_size_for, mpi_all_reduce_time_us
from repro.ncclsim.mpi_baseline import MPI_ALPHA_US


def _two_collective_cluster(max_blocks=32):
    cluster = build_cluster("single-3090", max_resident_blocks=max_blocks)
    group = make_backend("nccl", cluster).new_group([0, 1])
    return cluster, group


def _install(cluster, group, orders, streams=None, sync_after_first=False):
    """Rank ``r`` launches the all-reduces keyed ``orders[r]`` (on the
    streams ``streams[r]``), then waits on each; returns the shared ops."""
    ops = {}
    for rank, order in zip(group.ranks, orders):
        program, works = [], []
        for index, key in enumerate(order):
            stream = streams[rank][index] if streams else "default"
            work = group.all_reduce(rank, count=1024, key=key, stream=stream)
            works.append(work)
            program.append(work.submit_op())
            if sync_after_first and index == 0:
                program.append(DeviceSynchronize())
        program += [work.wait_op() for work in works]
        cluster.add_host(rank, HostProgram(program))
        ops.update((key, work.run) for key, work in zip(order, works))
    return ops


def _run_one(cluster, group, kind, count):
    """Every member launches and waits on one ``kind`` collective."""
    works = [getattr(group, kind)(rank, count) for rank in group.ranks]
    cluster.add_hosts([HostProgram(work.ops()) for work in works])
    cluster.run()
    return works[0].run


class TestGridSize:
    def test_small_buffers_one_block(self):
        assert grid_size_for(1 << 10) == 1

    def test_large_buffers_more_blocks(self):
        assert grid_size_for(32 << 20) > 1
        assert grid_size_for(1 << 30) <= 4


class TestBasicSituations:
    def test_fig1a_consistent_order_completes(self):
        cluster, group = _two_collective_cluster()
        ops = _install(cluster, group, [[0, 1], [0, 1]])
        cluster.run()
        assert ops[0].fully_complete() and ops[1].fully_complete()

    def test_fig1c_single_queue_disorder_deadlocks(self):
        cluster, group = _two_collective_cluster()
        _install(cluster, group, [[0, 1], [1, 0]])
        with pytest.raises(DeadlockError):
            cluster.run()

    def test_fig1b_disorder_with_streams_and_resources_completes(self):
        cluster, group = _two_collective_cluster()
        ops = _install(cluster, group, [[0, 1], [1, 0]],
                       streams=[["sa", "sb"], ["sb", "sa"]])
        cluster.run()
        assert ops[0].fully_complete() and ops[1].fully_complete()

    def test_fig1c_resource_depletion_deadlocks(self):
        cluster, group = _two_collective_cluster(max_blocks=1)
        _install(cluster, group, [[0, 1], [1, 0]],
                 streams=[["sa", "sb"], ["sb", "sa"]])
        with pytest.raises(DeadlockError):
            cluster.run()

    def test_fig1d_sync_related_deadlock(self):
        cluster, group = _two_collective_cluster()
        _install(cluster, group, [[0, 1], [1, 0]],
                 streams=[["sa", "sb"], ["sb", "sa"]], sync_after_first=True)
        with pytest.raises(DeadlockError):
            cluster.run()


class TestCollectiveExecution:
    @pytest.mark.parametrize("kind,count", [
        ("all_reduce", 1 << 18), ("all_gather", 1 << 16),
        ("reduce_scatter", 1 << 18), ("broadcast", 1 << 18), ("reduce", 1 << 18),
    ])
    def test_all_kinds_complete_on_eight_gpus(self, kind, count):
        cluster = build_cluster("single-3090")
        group = make_backend("nccl", cluster).new_group()
        assert _run_one(cluster, group, kind, count).fully_complete()

    def test_larger_buffers_take_longer(self):
        def run(nbytes):
            cluster = build_cluster("single-3090")
            group = make_backend("nccl", cluster).new_group()
            return _run_one(cluster, group, "all_reduce", nbytes // 4).latency_us()

        assert run(8 << 20) > run(64 << 10)

    def test_cross_node_slower_than_single_node(self):
        def run(topology, world):
            cluster = build_cluster(topology)
            group = make_backend("nccl", cluster).new_group(list(range(world)))
            return _run_one(cluster, group, "all_reduce",
                            (1 << 20) // 4).latency_us()

        assert run("dual-3090", 16) > run("single-3090", 8)

    def test_rank_not_in_communicator_rejected(self):
        cluster = build_cluster("single-3090")
        group = make_backend("nccl", cluster).new_group([0, 1])
        with pytest.raises(ConfigurationError):
            group.all_reduce(5, count=256)


class TestMpiBaseline:
    def test_nccl_beats_mpi_for_large_buffers(self):
        large = (16 << 20) / mpi_all_reduce_time_us(16 << 20, 8)
        small = (4 << 10) / mpi_all_reduce_time_us(4 << 10, 8)
        assert large > small  # MPI bandwidth still grows with size
        assert mpi_all_reduce_time_us(16 << 20, 8) > mpi_all_reduce_time_us(1 << 20, 8)

    def test_single_rank_is_trivial(self):
        assert mpi_all_reduce_time_us(1 << 20, 1) == pytest.approx(MPI_ALPHA_US)
