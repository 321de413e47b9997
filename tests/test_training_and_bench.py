"""Integration tests: the trainer over both backends, and the bench drivers."""

import pytest

from repro.common.errors import DeadlockError, SimulationError
from repro.gpusim import build_cluster
from repro.workloads import (
    GroupTrainingBackend,
    ParallelPlan,
    TrainingRun,
    resnet50_model,
    vit_model,
)

CHUNK = 512 << 10


def dfccl_backend(cluster):
    return GroupTrainingBackend(cluster, "dfccl", chunk_bytes=CHUNK)


def nccl_backend(cluster, orchestrator):
    return GroupTrainingBackend(cluster, "nccl", chunk_bytes=CHUNK,
                                orchestrator=orchestrator)


def small_dp_plan(dp=2, batch=32, buckets=4):
    return ParallelPlan(resnet50_model(), dp=dp, microbatch_size=batch,
                        grad_buckets=buckets)


class TestTrainingRun:
    def test_dfccl_dp_training_completes(self):
        cluster = build_cluster("single-3090")
        backend = dfccl_backend(cluster)
        result = TrainingRun(cluster, small_dp_plan(), backend, iterations=3).run()
        assert result.iterations == 2
        assert result.throughput_samples_per_s > 0
        assert len(result.iteration_times_us) == 2

    def test_nccl_orchestrated_dp_training_completes(self):
        cluster = build_cluster("single-3090")
        backend = nccl_backend(cluster, "oneflow")
        result = TrainingRun(cluster, small_dp_plan(), backend, iterations=3).run()
        assert result.throughput_samples_per_s > 0

    def test_dfccl_comparable_to_static_sorting(self):
        """Fig. 10 shape: DFCCL within a few percent of statically sorted NCCL."""
        plan = small_dp_plan(dp=4, batch=48, buckets=6)
        cluster_a = build_cluster("single-3090")
        dfccl = TrainingRun(cluster_a, plan, dfccl_backend(cluster_a),
                            iterations=3).run()
        cluster_b = build_cluster("single-3090")
        static = TrainingRun(cluster_b, plan,
                             nccl_backend(cluster_b, "oneflow"),
                             iterations=3).run()
        ratio = dfccl.throughput_samples_per_s / static.throughput_samples_per_s
        assert 0.9 < ratio < 1.15

    def test_horovod_slower_than_dfccl(self):
        """Fig. 10 shape: coordination overhead costs Horovod throughput."""
        plan = small_dp_plan(dp=4, batch=48, buckets=12)
        cluster_a = build_cluster("single-3090")
        dfccl = TrainingRun(cluster_a, plan, dfccl_backend(cluster_a),
                            iterations=3).run()
        cluster_b = build_cluster("single-3090")
        horovod = TrainingRun(cluster_b, plan,
                              nccl_backend(cluster_b, "horovod"),
                              iterations=3).run()
        assert dfccl.throughput_samples_per_s > horovod.throughput_samples_per_s

    def test_hybrid_parallel_training_completes(self):
        plan = ParallelPlan(vit_model(), tp=2, dp=2, pp=2, microbatch_size=16,
                            num_microbatches=1, grad_buckets=4)
        cluster = build_cluster("single-3090")
        backend = dfccl_backend(cluster)
        result = TrainingRun(cluster, plan, backend, iterations=2, warmup=1).run()
        assert result.throughput_samples_per_s > 0

    def test_result_statistics(self):
        cluster = build_cluster("single-3090")
        backend = dfccl_backend(cluster)
        result = TrainingRun(cluster, small_dp_plan(), backend, iterations=4).run()
        assert result.iteration_time_cv() >= 0.0
        curve = result.cumulative_mean_throughput()
        assert len(curve) == result.iterations


class TestBenchDrivers:
    def test_measure_collective_both_backends(self):
        from repro.bench import measure_collective
        nccl = measure_collective("nccl", "all_reduce", 64 << 10, world_size=4)
        dfccl = measure_collective("dfccl", "all_reduce", 64 << 10, world_size=4)
        assert nccl["latency_us"] > 0 and dfccl["latency_us"] > 0
        # Comparable latency: within a small constant factor of each other.
        assert dfccl["latency_us"] < 4 * nccl["latency_us"]

    def test_bandwidth_grows_with_buffer_size(self):
        from repro.bench import measure_collective
        small = measure_collective("dfccl", "all_reduce", 16 << 10, world_size=4)
        large = measure_collective("dfccl", "all_reduce", 4 << 20, world_size=4)
        assert large["bandwidth_gbps"] > small["bandwidth_gbps"]

    def test_workload_independent_overheads(self):
        from repro.bench import workload_independent_overheads
        report = workload_independent_overheads(world_size=2)
        variants = {row["cq_variant"]: row["cqe_write_us"] for row in report["time_overheads"]}
        assert variants["vanilla"] > variants["optimized-ring"] > variants["optimized-cas"]
        assert report["memory_overheads"]["shared_bytes_per_block"] > 0

    def test_workload_independent_overheads_are_pinned(self):
        """Fig. 7(b,c) and Sec. 6.2 come from the fixed constants of
        ``repro.core.config``; these are their values, to the last bit."""
        from repro.bench import workload_independent_overheads
        report = workload_independent_overheads()
        assert report["time_overheads"] == [
            {"cq_variant": "vanilla", "sqe_read_us": 5.3, "preparing_us": 1.45,
             "cqe_write_us": 7.099999999999999},
            {"cq_variant": "optimized-ring", "sqe_read_us": 5.3,
             "preparing_us": 1.45, "cqe_write_us": 4.8},
            {"cq_variant": "optimized-cas", "sqe_read_us": 5.3,
             "preparing_us": 1.45, "cqe_write_us": 2.0},
        ]
        assert report["memory_overheads"] == {
            "shared_bytes_per_block": 13024, "global_bytes_per_block": 4096000,
            "global_bytes_shared": 11072, "num_blocks": 1,
            "num_collectives": 1000,
        }

    def test_sec61_programs(self):
        from repro.bench import sec61_random_order_program, sec61_sync_program
        nccl = sec61_random_order_program("nccl", num_gpus=4, num_collectives=4)
        dfccl = sec61_random_order_program("dfccl", num_gpus=4, num_collectives=4,
                                           iterations=1)
        assert nccl["deadlocked"] is True
        assert dfccl["deadlocked"] is False
        sync_nccl = sec61_sync_program("nccl", num_gpus=4, num_collectives=3)
        sync_dfccl = sec61_sync_program("dfccl", num_gpus=4, num_collectives=3,
                                        iterations=1)
        assert sync_nccl["deadlocked"] is True
        assert sync_dfccl["deadlocked"] is False

    def test_table1_row_runs(self):
        from repro.bench import run_table1_row
        row = run_table1_row("sq-free-1x8-1e-5", rounds=30, collective_scale=0.2)
        assert 0.0 <= row["measured_ratio"] <= 1.0
        assert row["paper_ratio"] == pytest.approx(0.0121)

    def test_nccl_vs_mpi_large_buffer_speedup(self):
        from repro.bench import nccl_vs_mpi_comparison
        rows = nccl_vs_mpi_comparison(world_size=4, sizes=[4 << 10, 4 << 20])
        large = [row for row in rows if row["nbytes"] == 4 << 20][0]
        assert large["speedup"] > 1.0

    def test_reporting_helpers(self):
        from repro.bench import format_series, format_table
        table = format_table([{"a": 1, "b": 2.5}], title="demo")
        assert "demo" in table and "2.500" in table
        series = format_series([(1, 2.0), (2, 4.0)], "x", "y")
        assert "4.000" in series


class TestHarnessExactness:
    """The benchmark harnesses install a ``collective_program`` through
    ``install_program``; their simulated results are pinned to the last bit
    (values from the hand-built loops they replaced).  The CQE write times of
    Fig. 7 are pinned by ``test_workload_independent_overheads_are_pinned``.
    """

    def test_measure_collective_is_pinned(self):
        from repro.bench import measure_collective
        dfccl = measure_collective("dfccl", "all_reduce", 1 << 20)
        assert dfccl["latency_us"] == 298.1749762770559
        assert dfccl["core_time_us"] == 270.13382476190446
        nccl = measure_collective("nccl", "broadcast", 4 << 10, algorithm="tree")
        assert nccl["latency_us"] == 24.35347670995671
        auto = measure_collective("nccl", "all_reduce", 64 << 10, world_size=16,
                                  topology="dual-3090", algorithm="auto")
        assert auto["algorithm"] == "tree"
        assert auto["latency_us"] == 151.04285044733047

    def test_mpi_measured_through_its_backend_matches_the_model(self):
        from repro.bench import measure_collective
        from repro.ncclsim import mpi_all_reduce_time_us
        for nbytes in (4 << 10, 32 << 10, 1 << 20, 16 << 20):
            row = measure_collective("mpi", "all_reduce", nbytes)
            analytic = nbytes / (mpi_all_reduce_time_us(nbytes, 8) * 1e3)
            assert row["bandwidth_gbps"] == analytic
        assert measure_collective("mpi", "all_reduce",
                                  1 << 20)["bandwidth_gbps"] == 0.6709941640217058

    @pytest.mark.parametrize("backend,now,steps", [
        ("dfccl", 581.6509828571423, 219),
        ("nccl", 548.7009828571424, 167),
        ("mpi", 1563.22, 64),
    ])
    def test_demo_run_is_pinned(self, backend, now, steps):
        from repro.obs.report import demo_run
        cluster, _ = demo_run(backend=backend)
        assert (cluster.engine.now, cluster.engine.step_count) == (now, steps)

    @pytest.mark.parametrize("backend,error", [
        ("nccl", DeadlockError),
        ("dfccl", SimulationError),
    ])
    def test_unfinished_timed_run_fails_loudly(self, backend, error):
        """``install_program`` records deadlocks instead of raising them, so
        the timed harness raises itself: on an engine deadlock (nccl wedged
        on a crashed peer) and on any Work not done (dfccl recovers, but the
        crashed rank's Works never finish)."""
        from repro.bench.collective_perf import _run_timed
        from repro.faults import FaultPlan
        from repro.testing import collective_program
        program = collective_program("single-3090", 4, rounds=2,
                                     fault_plan=FaultPlan().add_crash(1, 10.0))
        with pytest.raises(SimulationError) as raised:
            _run_timed(backend, program)
        assert type(raised.value) is error
