"""Coverage for ``api.mpi_adapter`` error paths and ``Work`` wait semantics.

The MPI backend is the only host-staged execution platform behind
``repro.api``; its rendezvous error modes (missing participants, deadline
expiry mid-rendezvous) and the partial-completion semantics of
``Work`` / ``wait_all`` were previously untested.
"""

import pytest

from repro.api import make_backend, wait_all
from repro.api.mpi_adapter import MpiCollectiveBackend
from repro.common.errors import ConfigurationError, DeadlockError
from repro.gpusim import HostProgram, build_cluster
from repro.gpusim.host import CpuCompute


def _run_all(backend, group, works_by_rank, until_us=None, extra_ops=None):
    cluster = backend.cluster
    for rank, works in works_by_rank.items():
        ops = list((extra_ops or {}).get(rank, []))
        ops.extend(work.submit_op() for work in works)
        ops.extend(wait_all(works))
        cluster.add_host(rank, HostProgram(ops), name=f"h{rank}")
    return cluster.run(until_us=until_us)


class TestMpiErrorPaths:
    def test_non_member_rank_rejected(self):
        cluster = build_cluster("single-3090")
        mpi = make_backend("mpi", cluster)
        group = mpi.new_group([0, 1, 2])
        with pytest.raises(ConfigurationError):
            group.all_reduce(5, count=16)

    def test_missing_participant_deadlocks(self):
        """A rank that never submits leaves the rendezvous waiting forever."""
        cluster = build_cluster("single-3090")  # deadlock_mode="raise"
        mpi = make_backend("mpi", cluster)
        group = mpi.new_group([0, 1])
        work0 = group.all_reduce(0, count=1 << 10, key="lonely")
        # Rank 1 never calls: rank 0's wait op can never be signalled.
        cluster.add_host(0, HostProgram(work0.ops()), name="h0")
        with pytest.raises(DeadlockError):
            cluster.run()
        assert not work0.done
        assert work0.completion_info() is None

    def test_duplicate_group_ranks_rejected(self):
        cluster = build_cluster("single-3090")
        mpi = make_backend("mpi", cluster)
        with pytest.raises(ConfigurationError):
            mpi.new_group([0, 0, 1])

    def test_unknown_backend_name(self):
        cluster = build_cluster("single-3090")
        with pytest.raises(ConfigurationError):
            make_backend("definitely-not-a-backend", cluster)

    def test_knob_uniformity_ignores_gpu_knobs(self):
        cluster = build_cluster("single-3090")
        mpi = make_backend("mpi", cluster, chunk_bytes=1 << 20,
                           algorithm="tree", config=object())
        assert isinstance(mpi, MpiCollectiveBackend)


class TestPartialCompletion:
    def test_deadline_leaves_later_work_incomplete(self):
        """A virtual-time deadline mid-program: early works done, late not."""
        cluster = build_cluster("single-3090")
        mpi = make_backend("mpi", cluster)
        group = mpi.new_group([0, 1])
        works = {rank: [group.all_reduce(rank, count=1 << 8, key="fast"),
                        group.all_reduce(rank, count=1 << 8, key="slow")]
                 for rank in (0, 1)}
        # Rank 1 burns 10ms of CPU before submitting the second collective;
        # the run deadline expires during that gap.
        for rank in (0, 1):
            fast, slow = works[rank]
            ops = [fast.submit_op(), fast.wait_op()]
            if rank == 1:
                ops.append(CpuCompute(10_000.0, label="straggling"))
            ops.extend([slow.submit_op(), slow.wait_op()])
            cluster.add_host(rank, HostProgram(ops), name=f"h{rank}")
        cluster.run(until_us=2_000.0)

        for rank in (0, 1):
            fast, slow = works[rank]
            assert fast.done
            assert fast.completion_info().member_ranks == (0, 1)
            assert not slow.done
            assert slow.completion_info() is None
            assert slow.finished_at_us is None
        assert works[0][0].finished_at_us == works[0][0].completion_info().time_us

    def test_wait_all_preserves_submission_order(self):
        cluster = build_cluster("single-3090")
        mpi = make_backend("mpi", cluster)
        group = mpi.new_group([0, 1])
        works = [group.all_reduce(0, count=1 << 10, key=i) for i in range(3)]
        ops = wait_all(works)
        assert len(ops) == 3
        assert [op.work for op in ops] == works

    def test_callback_fires_once_per_rank(self):
        cluster = build_cluster("single-3090")
        mpi = make_backend("mpi", cluster)
        group = mpi.new_group([0, 1])
        fired = []
        works = {rank: [group.all_reduce(rank, count=1 << 10,
                                         callback=lambda w: fired.append(w.rank))]
                 for rank in (0, 1)}
        _run_all(mpi, group, works)
        assert sorted(fired) == [0, 1]

    def test_started_at_reflects_submission(self):
        cluster = build_cluster("single-3090")
        mpi = make_backend("mpi", cluster)
        group = mpi.new_group([0, 1])
        works = {rank: [group.all_reduce(rank, count=1 << 10)]
                 for rank in (0, 1)}
        for rank in (0, 1):
            assert works[rank][0].started_at_us is None
        _run_all(mpi, group, works)
        for rank in (0, 1):
            work = works[rank][0]
            assert work.started_at_us is not None
            assert work.finished_at_us >= work.started_at_us

    def test_perf_report(self):
        cluster = build_cluster("single-3090")
        mpi = make_backend("mpi", cluster)
        group = mpi.new_group([0, 1, 2, 3])
        works = {rank: [group.all_reduce(rank, count=1 << 16, key=i)
                        for i in range(2)]
                 for rank in group.ranks}
        _run_all(mpi, group, works)
        report = mpi.perf_report(works[0])
        assert report["algorithm"] == "host-staged-ring"
        assert report["latency_us"] > 0
        assert report["core_time_us"] > 0
        assert report["preemptions"] == 0

