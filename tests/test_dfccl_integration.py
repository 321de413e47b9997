"""End-to-end DFCCL tests: deadlock prevention, correctness, scheduling, lifecycle."""

import gc
import weakref

import pytest

from repro.api import make_backend
from repro.common.errors import DeadlockError
from repro.common.rng import DeterministicRNG
from repro.common.types import CollectiveKind, CollectiveSpec
from repro.core import DfcclConfig
from repro.core.api import RankContext
from repro.gpusim import HostProgram, build_cluster
from repro.gpusim.host import DeviceSynchronize

# Deadlock-shaped scenarios must fail fast in CI if one genuinely hangs.
pytestmark = pytest.mark.timeout(300)


def run_dfccl(num_gpus=2, coll_sizes=(1024, 1024), orders=None, with_sync=False,
              config=None, iterations=1, max_blocks=32):
    """Run a DFCCL program with the given per-rank invocation orders.

    Collective ``i`` is the all-reduce of ``coll_sizes[i]`` elements keyed
    ``i``; they are registered in key order before any rank submits.
    """
    cluster = build_cluster("single-3090", max_resident_blocks=max_blocks)
    backend = make_backend("dfccl", cluster, config=config)
    group = backend.new_group(list(range(num_gpus)))
    for coll_id, count in enumerate(coll_sizes):
        group.ensure_collective(CollectiveSpec(CollectiveKind.ALL_REDUCE, count),
                                key=coll_id)
    programs = []
    for rank in group.ranks:
        ops = []
        for iteration in range(iterations):
            order = orders(rank, iteration) if orders else list(range(len(coll_sizes)))
            works = [group.all_reduce(rank, count=coll_sizes[coll_id], key=coll_id)
                     for coll_id in order]
            for index, work in enumerate(works):
                ops.append(work.submit_op())
                if with_sync and index == 0:
                    ops.append(DeviceSynchronize())
            ops += [work.wait_op() for work in works]
        ops += backend.finalize_ops(rank)
        programs.append(HostProgram(ops))
    cluster.add_hosts(programs)
    final_time = cluster.run()
    return cluster, backend, final_time


class TestDeadlockPrevention:
    def test_consistent_order_completes(self):
        _, backend, _ = run_dfccl()
        assert backend.stats(0).cqes_written == 2

    def test_disordered_single_queue_case_completes(self):
        """The Fig. 1(c) single-queue scenario does not deadlock under DFCCL."""
        _, backend, _ = run_dfccl(orders=lambda rank, _: [0, 1] if rank == 0 else [1, 0])
        assert backend.stats(0).cqes_written == 2
        assert backend.stats(1).cqes_written == 2

    def test_disordered_with_resource_depletion_completes(self):
        _, backend, _ = run_dfccl(orders=lambda rank, _: [0, 1] if rank == 0 else [1, 0],
                                  max_blocks=1)
        assert backend.stats(0).cqes_written == 2

    def test_disordered_with_gpu_sync_completes(self):
        """The Fig. 1(d) synchronization scenario does not deadlock under DFCCL."""
        _, backend, _ = run_dfccl(orders=lambda rank, _: [0, 1] if rank == 0 else [1, 0],
                                  with_sync=True)
        total_quits = backend.stats(0).voluntary_quits + backend.stats(1).voluntary_quits
        assert backend.stats(0).cqes_written == 2
        assert total_quits >= 1  # voluntary quitting is what breaks the sync deadlock

    def test_preemption_happens_under_disorder(self):
        _, backend, _ = run_dfccl(orders=lambda rank, _: [0, 1] if rank == 0 else [1, 0])
        assert backend.stats(0).preemptions + backend.stats(1).preemptions > 0

    def test_eight_gpu_random_orders_complete(self):
        rng = DeterministicRNG(5)
        _, backend, _ = run_dfccl(
            num_gpus=8,
            coll_sizes=tuple(64 << index for index in range(6)),
            orders=lambda rank, it: rng.child(rank, it).permutation(6),
            iterations=2,
        )
        for rank in range(8):
            assert backend.stats(rank).cqes_written == 12


class TestLifecycle:
    def test_repeated_invocation_of_registered_collective(self):
        _, backend, _ = run_dfccl(coll_sizes=(2048,), iterations=4)
        assert backend.stats(0).cqes_written == 4

    def test_daemon_launch_and_final_exit(self):
        _, backend, _ = run_dfccl()
        context = backend.contexts[0]
        assert context.finally_exited
        assert not context.daemon_alive
        assert backend.stats(0).launches >= 1
        assert backend.stats(0).final_exits == 1

    def test_engine_releases_completed_daemon_generations(self, monkeypatch):
        """Every daemon generation that quit is freed once the run ends (the
        engine keeps no completed actor), while a killed actor stays listed."""
        generations = []
        launch = RankContext.ensure_daemon_running

        def recording_launch(ctx, time_us):
            kernel = launch(ctx, time_us)
            if kernel is not None:
                generations.append(weakref.ref(kernel))
            return kernel

        monkeypatch.setattr(RankContext, "ensure_daemon_running", recording_launch)
        cluster, backend, _ = run_dfccl(
            orders=lambda rank, _: [0, 1] if rank == 0 else [1, 0], with_sync=True)
        assert backend.stats(0).voluntary_quits + backend.stats(1).voluntary_quits >= 1
        assert len(generations) > 2
        gc.collect()
        assert [ref for ref in generations if ref() is not None] == []

        device = cluster.device(0)
        cluster.fail_rank(0, cluster.engine.now)
        assert device.finished
        assert device in cluster.engine.actors()

    def test_daemon_launch_shape_follows_registrations(self):
        cluster = build_cluster("single-3090")
        backend = make_backend("dfccl", cluster)
        backend.new_group([0, 1]).ensure_collective(
            CollectiveSpec(CollectiveKind.ALL_REDUCE, 64))
        context = backend.contexts[0]
        assert (context.daemon_grid_size, context.daemon_block_size) == (1, 256)
        # A second job's group, so its teardown leaves the small collective.
        large_group = backend.new_group([0, 1], job="large")
        large = large_group.all_reduce(  # 8 MiB of float32
            0, count=2 << 20).run.coll
        assert large.spec.nbytes >= 4 << 20
        assert (context.daemon_grid_size, context.daemon_block_size) == (
            large.grid_size, large.block_size) == (3, 512)
        assert backend.unregister_all("large") == 1
        assert (context.daemon_grid_size, context.daemon_block_size) == (1, 256)

    def test_all_collective_kinds_supported(self):
        cluster = build_cluster("single-3090")
        backend = make_backend("dfccl", cluster)
        group = backend.new_group(list(range(4)))
        programs = []
        for rank in group.ranks:
            works = [
                group.all_reduce(rank, count=256),
                group.all_gather(rank, count=256),
                group.reduce_scatter(rank, count=256),
                group.broadcast(rank, count=256, root=1),
                group.reduce(rank, count=256, root=2),
            ]
            ops = [op for work in works for op in work.ops()]
            ops += backend.finalize_ops(rank)
            programs.append(HostProgram(ops))
        cluster.add_hosts(programs)
        cluster.run()
        assert backend.stats(0).cqes_written == 5


class TestSchedulingBehaviour:
    def test_priority_ordering_config_runs(self):
        config = DfcclConfig(ordering="priority")
        _, backend, _ = run_dfccl(config=config,
                                  orders=lambda rank, _: [0, 1] if rank == 0 else [1, 0])
        assert backend.stats(0).cqes_written == 2

    def test_naive_policy_causes_more_preemptions_than_adaptive(self):
        def orders(rank, _):
            return [0, 1, 2, 3] if rank == 0 else [3, 2, 1, 0]

        sizes = (4096,) * 4
        _, adaptive_backend, _ = run_dfccl(coll_sizes=sizes, orders=orders,
                                           config=DfcclConfig(spin_policy="adaptive"))
        _, naive_backend, _ = run_dfccl(coll_sizes=sizes, orders=orders,
                                        config=DfcclConfig(spin_policy="naive"))
        adaptive = sum(adaptive_backend.stats(rank).preemptions for rank in range(2))
        naive = sum(naive_backend.stats(rank).preemptions for rank in range(2))
        assert naive >= adaptive

    def test_task_queue_length_samples_recorded(self):
        _, backend, _ = run_dfccl(coll_sizes=(1024, 1024, 1024))
        assert len(backend.stats(0).task_queue_length_samples) == 3

    def test_fig7_style_time_overheads_present(self):
        _, backend, _ = run_dfccl()
        stats = backend.stats(0)
        assert stats.mean_sqe_read_time_us() == pytest.approx(5.3, abs=0.1)
        assert stats.mean_cqe_write_time_us() == pytest.approx(2.0, abs=0.5)


class TestVersusNccl:
    def test_dfccl_survives_where_nccl_deadlocks(self):
        """The same disordered program deadlocks NCCL but completes under DFCCL."""
        # NCCL: deadlock expected.
        cluster = build_cluster("single-3090")
        group = make_backend("nccl", cluster).new_group([0, 1])
        for rank, order in ((0, ["a", "b"]), (1, ["b", "a"])):
            works = [group.all_reduce(rank, 1024, key=key) for key in order]
            cluster.add_host(rank, HostProgram([work.submit_op() for work in works]
                                               + [work.wait_op() for work in works]))
        with pytest.raises(DeadlockError):
            cluster.run()

        # DFCCL: completes.
        _, backend, _ = run_dfccl(orders=lambda rank, _: [0, 1] if rank == 0 else [1, 0])
        assert backend.stats(0).cqes_written == 2
