"""Tests for the unified ``repro.api`` front-end.

Covers the backend registry, ProcessGroup call semantics, Work futures,
full training runs driven through ``make_backend`` + ``ProcessGroup`` on
every backend, and that the removed per-backend surfaces stay removed.
"""

import ast

import pytest

from repro.api import (
    BACKENDS,
    CollectiveBackend,
    make_backend,
    register_backend,
    wait_all,
)
from repro.common.errors import ConfigurationError, DeadlockError
from repro.common.types import CollectiveKind, CollectiveSpec
from repro.core import DfcclConfig
from repro.gpusim import HostProgram, build_cluster
from repro.workloads import (
    GroupTrainingBackend,
    ParallelPlan,
    TrainingRun,
    resnet50_model,
)

CHUNK = 512 << 10


@pytest.fixture
def nccl_kernels(monkeypatch):
    """The kernel each nccl Work launched, by ``(run, group rank)``."""
    from repro.api.nccl_adapter import NcclCollectiveBackend

    kernels = {}
    make_kernel = NcclCollectiveBackend._make_kernel

    def recording_make_kernel(backend, work):
        kernel = kernels[work.run, work.group_rank] = make_kernel(backend, work)
        return kernel

    monkeypatch.setattr(NcclCollectiveBackend, "_make_kernel",
                        recording_make_kernel)
    return kernels


def small_plan(dp=2, batch=32, buckets=4):
    return ParallelPlan(resnet50_model(), dp=dp, microbatch_size=batch,
                        grad_buckets=buckets)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"dfccl", "nccl", "mpi"} <= set(BACKENDS)

    def test_unknown_backend_rejected(self):
        cluster = build_cluster("single-3090")
        with pytest.raises(ConfigurationError, match="unknown collective backend"):
            make_backend("gloo", cluster)

    def test_custom_backend_pluggable(self):
        class NullBackend(CollectiveBackend):
            name = "null"

        register_backend("null-test", NullBackend)
        try:
            cluster = build_cluster("single-3090")
            backend = make_backend("null-test", cluster)
            assert backend.name == "null"
            assert backend.new_group([0, 1]).size == 2
        finally:
            del BACKENDS["null-test"]

    def test_uniform_knob_surface(self):
        # Every builtin factory tolerates the common knob set, so sweep
        # drivers need no per-backend argument plumbing.
        cluster = build_cluster("single-3090")
        for name in ("dfccl", "nccl", "mpi"):
            backend = make_backend(name, cluster, chunk_bytes=64 << 10,
                                   config=DfcclConfig())
            assert backend.name == name

    @pytest.mark.parametrize("name", ["dfccl", "nccl", "mpi"])
    def test_misspelled_knob_rejected(self, name):
        # No factory swallows unknown keywords: a typo must not silently
        # run the default configuration.
        cluster = build_cluster("single-3090")
        with pytest.raises(TypeError):
            make_backend(name, cluster, algoritm="tree")


class TestProcessGroup:
    def test_group_membership_checked(self):
        cluster = build_cluster("single-3090")
        group = make_backend("dfccl", cluster).new_group([0, 1, 2])
        assert group.size == 3
        assert group.group_rank(2) == 2
        with pytest.raises(ConfigurationError):
            group.group_rank(5)
        with pytest.raises(ConfigurationError):
            group.all_reduce(7, count=4)

    @pytest.mark.parametrize("backend_name", ["dfccl", "nccl", "mpi"])
    def test_root_outside_the_group_rejected_at_the_call(self, backend_name):
        cluster = build_cluster("single-3090")
        group = make_backend(backend_name, cluster).new_group([0, 1, 2, 3])
        for call in (group.broadcast, group.reduce):
            with pytest.raises(ConfigurationError, match="root 5"):
                call(0, count=256, root=5)
            with pytest.raises(ConfigurationError, match="root 4"):
                call(1, count=256, root=4)
        works = [group.broadcast(rank, count=256, root=3) for rank in range(4)]
        assert [work.index for work in works] == [0, 0, 0, 0]

    def test_auto_assigned_ids_and_invocation_indices(self):
        cluster = build_cluster("single-3090")
        backend = make_backend("dfccl", cluster)
        group = backend.new_group([0, 1])
        # Two keys -> two registered collectives; repeated calls -> indices.
        works = [group.all_reduce(rank, count=256, key=key)
                 for key in (0, 1) for rank in (0, 1)]
        again = [group.all_reduce(rank, count=256, key=0) for rank in (0, 1)]
        assert len(backend.collectives) == 2
        assert {work.index for work in works} == {0}
        assert {work.index for work in again} == {1}

    def test_shape_identity_without_key(self):
        # Same spec without a key joins the same logical collective.
        cluster = build_cluster("single-3090")
        backend = make_backend("dfccl", cluster)
        group = backend.new_group([0, 1])
        first = group.all_reduce(0, count=256)
        second = group.all_reduce(0, count=256)
        assert (first.index, second.index) == (0, 1)
        assert len(backend.collectives) == 1

    def test_key_identity_overrides_shape(self):
        # With an explicit key the key is the identity: per-rank shape
        # asymmetries (pipeline send/recv quoting sender vs receiver sizes)
        # still meet in one collective, first spec canonical.
        cluster = build_cluster("single-3090")
        backend = make_backend("dfccl", cluster)
        group = backend.new_group([0, 1])
        sender = group.collective(
            0, CollectiveSpec(CollectiveKind.ALL_REDUCE, 512), key="pp")
        receiver = group.collective(
            1, CollectiveSpec(CollectiveKind.ALL_REDUCE, 1024), key="pp")
        assert sender.run.coll is receiver.run.coll
        assert sender.run.coll.spec.count == 512

    def test_group_priority_flows_into_registration(self):
        cluster = build_cluster("single-3090")
        backend = make_backend("dfccl", cluster)
        group = backend.new_group([0, 1], priority=7)
        work = group.all_reduce(0, count=256)
        assert work.run.coll.priority == 7

    def test_explicit_priority_zero_beats_group_default(self):
        cluster = build_cluster("single-3090")
        backend = make_backend("dfccl", cluster)
        group = backend.new_group([0, 1], priority=7)
        work = group.all_reduce(0, count=256, priority=0)
        assert work.run.coll.priority == 0

    def test_group_usable_again_after_unregister_all(self):
        cluster = build_cluster("single-3090")
        backend = make_backend("dfccl", cluster)
        group = backend.new_group([0, 1])
        group.ensure_collective(CollectiveSpec(CollectiveKind.ALL_REDUCE, 256),
                                key=0)
        assert backend.unregister_all() == 1
        # A later call re-registers instead of submitting to a dead id.
        work = group.all_reduce(0, count=256, key=0)
        assert work.run.coll in backend.collectives.values()

    def test_job_namespace_flows_into_ids_and_pool(self):
        cluster = build_cluster("single-3090")
        backend = make_backend("dfccl", cluster)
        group = backend.new_group([0, 1], job="tenant-a")
        work = group.all_reduce(0, count=256)
        coll = work.run.coll
        assert coll.coll_id[0] == "tenant-a"
        assert coll.job == "tenant-a"
        assert coll.name == f"{group.name}:all_reduce"
        # Teardown acts on one job's collectives only; the released
        # communicator is pooled under the job.
        assert backend.unregister_all() == 0
        assert backend.unregister_all("tenant-a") == 1
        assert backend.pool.jobs() == ["tenant-a"]

    def test_nccl_job_view_keeps_knobs_and_tags_kernels(self, nccl_kernels):
        """A job-named group on a configured nccl backend keeps the
        backend's knobs and tags its kernels with the job."""
        cluster = build_cluster("single-3090")
        backend = make_backend("nccl", cluster, chunk_bytes=CHUNK,
                               algorithm="tree")
        group = backend.new_group([0, 1], job="job-a")
        works = [group.all_reduce(rank, count=1 << 16) for rank in group.ranks]
        plan = works[0].run.plan
        assert (plan.chunk_bytes, plan.algorithm) == (CHUNK, "tree")
        cluster.add_hosts([HostProgram(work.ops()) for work in works])
        cluster.run()
        for work in works:
            kernel = nccl_kernels[work.run, work.group_rank]
            assert kernel.tenant == "job-a"
            assert kernel.stream.name == "comm-job-a"

    def test_group_job_is_the_only_job_name(self, nccl_kernels):
        """``new_group(job=)`` reaches everything a job name controls: the
        nccl op, its kernels and their stream, and the dfccl collective id."""
        cluster = build_cluster("single-3090")
        nccl = make_backend("nccl", cluster)
        group = nccl.new_group([0, 1], job="job-a")
        works = [group.all_reduce(rank, count=256) for rank in group.ranks]
        cluster.add_hosts([HostProgram(work.ops()) for work in works])
        cluster.run()
        for work in works:
            kernel = nccl_kernels[work.run, work.group_rank]
            assert work.run.job == "job-a"
            assert kernel.tenant == "job-a"
            assert kernel.stream.name == "comm-job-a"

        dfccl = make_backend("dfccl", build_cluster("single-3090"))
        work = dfccl.new_group([0, 1], job="job-a").all_reduce(0, count=256)
        assert work.run.coll.coll_id == ("job-a", 0)


def _run_disordered(name, cluster=None):
    """The Fig. 1(c) recipe as one backend-agnostic program."""
    cluster = cluster or build_cluster("single-3090")
    backend = make_backend(name, cluster)
    group = backend.new_group(list(range(4)))
    all_works = []
    programs = []
    for rank in group.ranks:
        order = [0, 1] if rank < 2 else [1, 0]
        works = [group.all_reduce(rank, count=1 << 16, key=key) for key in order]
        all_works.extend(works)
        ops = [work.submit_op() for work in works] + wait_all(works)
        ops.extend(backend.finalize_ops(rank))
        programs.append(HostProgram(ops))
    cluster.add_hosts(programs)
    cluster.run()
    return all_works


def _contract_run(name):
    """One all-reduce over cluster ranks (1, 3), each Work checked unrun.

    Returns the works in group-rank order and the works the callbacks
    received, in firing order.
    """
    cluster = build_cluster("single-3090")
    backend = make_backend(name, cluster)
    group = backend.new_group([1, 3])
    fired = []
    works = [group.all_reduce(rank, count=1 << 14, callback=fired.append)
             for rank in group.ranks]
    for work in works:
        assert not work.done and not work.aborted
        assert work.started_at_us is None
        assert work.completion_info() is None
        assert work.finished_at_us is None
        cluster.add_host(work.rank, HostProgram(
            work.ops() + backend.finalize_ops(work.rank)), name=f"h{work.rank}")
    cluster.run()
    return works, fired


class TestWorkFutures:
    @pytest.mark.parametrize("name", ["dfccl", "nccl", "mpi"])
    def test_one_work_contract(self, name):
        """One Work class answers the same questions on every backend."""
        works, fired = _contract_run(name)
        # Each rank's callback ran exactly once, with that rank's Work.
        assert sorted(fired, key=lambda work: work.rank) == works
        for work in works:
            assert work.done and not work.aborted
            info = work.completion_info()
            assert info.member_ranks == (1, 3)
            assert info.signature == (0, (0, 1))
            assert work.finished_at_us >= work.started_at_us
        sequences = [work.primitive_sequence() for work in works]
        if name == "mpi":
            assert sequences == [None, None]
        else:
            other, _ = _contract_run("nccl" if name == "dfccl" else "dfccl")
            assert sequences == [work.primitive_sequence() for work in other]
            assert all(sequences)

    def test_dfccl_completes_disordered_program(self):
        works = _run_disordered("dfccl")
        assert all(work.done for work in works)
        infos = [work.completion_info() for work in works]
        assert all(info.member_ranks == (0, 1, 2, 3) for info in infos)
        assert len({info.signature for info in infos}) == 1

    @pytest.mark.parametrize("name", ["dfccl", "nccl", "mpi"])
    def test_works_of_one_invocation_share_their_member_ranks(self, name):
        """The member tuple is built once per communicator, not per rank."""
        works, _ = _contract_run(name)
        first, second = (work.completion_info().member_ranks for work in works)
        assert first is second

    def test_mpi_completes_disordered_program(self):
        works = _run_disordered("mpi")
        assert all(work.done for work in works)
        assert all(work.finished_at_us > work.started_at_us for work in works)

    def test_nccl_deadlocks_on_disordered_program(self):
        with pytest.raises(DeadlockError):
            _run_disordered("nccl")

    def test_incomplete_work_reports_none(self):
        cluster = build_cluster("single-3090")
        group = make_backend("nccl", cluster).new_group([0, 1])
        work = group.all_reduce(0, count=256)
        assert not work.done
        assert work.completion_info() is None
        assert work.finished_at_us is None

    @pytest.mark.parametrize("name", ["dfccl", "nccl", "mpi"])
    def test_callbacks_fire_uniformly(self, name):
        cluster = build_cluster("single-3090")
        backend = make_backend(name, cluster)
        group = backend.new_group([0, 1])
        fired = []
        programs = []
        for rank in group.ranks:
            work = group.all_reduce(rank, count=256,
                                    callback=lambda w: fired.append(w.rank))
            ops = work.ops()
            ops.extend(backend.finalize_ops(rank))
            programs.append(HostProgram(ops))
        cluster.add_hosts(programs)
        cluster.run()
        assert sorted(fired) == [0, 1]

    @pytest.mark.parametrize("name", ["dfccl", "nccl", "mpi"])
    def test_barrier_synchronizes_all_members(self, name):
        cluster = build_cluster("single-3090")
        backend = make_backend(name, cluster)
        group = backend.new_group([0, 1, 2])
        works = []
        programs = []
        for rank in group.ranks:
            work = group.barrier(rank)
            works.append(work)
            ops = work.ops()
            ops.extend(backend.finalize_ops(rank))
            programs.append(HostProgram(ops))
        cluster.add_hosts(programs)
        cluster.run()
        assert all(work.done for work in works)

    def test_wait_all_preserves_submission_order(self):
        cluster = build_cluster("single-3090")
        group = make_backend("mpi", cluster).new_group([0])
        works = [group.all_reduce(0, count=256, key=key) for key in (0, 1)]
        ops = wait_all(works)
        assert len(ops) == 2


class TestTrainingThroughApi:
    """Acceptance: make_backend + ProcessGroup drive a full training run."""

    @pytest.mark.parametrize("name", ["dfccl", "nccl"])
    def test_full_training_run_both_backends(self, name):
        cluster = build_cluster("single-3090")
        backend = GroupTrainingBackend(cluster, make_backend(name, cluster,
                                                             chunk_bytes=CHUNK))
        result = TrainingRun(cluster, small_plan(), backend, iterations=3).run()
        assert result.iterations == 2
        assert result.throughput_samples_per_s > 0
        assert result.backend.startswith(name)

    def test_mpi_backend_trains_too(self):
        cluster = build_cluster("single-3090")
        backend = GroupTrainingBackend(cluster, "mpi")
        result = TrainingRun(cluster, small_plan(), backend, iterations=2).run()
        assert result.throughput_samples_per_s > 0
        assert result.backend == "mpi"

    def test_nccl_training_charges_default_orchestration(self):
        cluster = build_cluster("single-3090")
        backend = GroupTrainingBackend(cluster, "nccl", chunk_bytes=CHUNK)
        result = TrainingRun(cluster, small_plan(), backend, iterations=2).run()
        # The dedicated-kernel baseline ships with its manual-orchestration
        # coordination layer by default.
        assert result.backend == "nccl+megatron-manual"

    def test_training_backends_share_one_codepath(self):
        # The whole point of the redesign: one GroupTrainingBackend class,
        # configured purely by the backend object it drives.
        cluster_a = build_cluster("single-3090")
        cluster_b = build_cluster("single-3090")
        a = GroupTrainingBackend(cluster_a, "dfccl", chunk_bytes=CHUNK)
        b = GroupTrainingBackend(cluster_b, "nccl", orchestrator="oneflow",
                                 chunk_bytes=CHUNK)
        assert type(a) is type(b) is GroupTrainingBackend


class TestRemovedShims:
    """The paper-era shim surfaces were deleted after their deprecation cycle."""

    def test_training_backend_shims_are_gone(self):
        import repro.workloads as workloads

        assert not hasattr(workloads, "DfcclTrainingBackend")
        assert not hasattr(workloads, "NcclTrainingBackend")

    def test_job_runner_shims_are_gone(self):
        import repro.multijob as multijob

        assert not hasattr(multijob, "DfcclJobRunner")
        assert not hasattr(multijob, "NcclJobRunner")
        assert not hasattr(multijob, "JobRunner")

    def test_listing1_aliases_are_gone(self):
        from repro.core import api as core_api

        for name in ("dfccl_init", "dfccl_register_all_reduce",
                     "dfccl_register_all_gather", "dfccl_register_reduce_scatter",
                     "dfccl_register_broadcast", "dfccl_register_reduce",
                     "dfccl_run", "dfccl_destroy"):
            assert not hasattr(core_api, name), name

    def test_unread_kernel_and_context_surfaces_are_gone(self):
        """The nccl op's kernel registry (only tests read it) and the
        context cache's ``mark_progress`` (the daemon sets the slot's dirty
        bit itself) were deleted."""
        from repro.core.context import ActiveContextCache
        from repro.ncclsim import NcclCollectiveOp

        for name in ("register_kernel", "kernel", "_kernels"):
            assert not hasattr(NcclCollectiveOp, name), name
        cluster = build_cluster("single-3090")
        work = make_backend("nccl", cluster).new_group([0, 1]).all_reduce(
            0, count=256)
        assert not hasattr(work.run, "_kernels")
        assert not hasattr(ActiveContextCache, "mark_progress")

    def test_rank_context_holds_no_poller(self):
        """The engine alone holds a rank's poller: ``RankContext.poller``
        was read nowhere and closed a reference cycle."""
        backend = make_backend("dfccl", build_cluster("single-3090"))
        assert not hasattr(backend.init_rank(0), "poller")

    def test_cluster_job_runner_accepts_any_registered_backend(self):
        from repro.multijob import ClusterJobRunner

        cluster = build_cluster("single-3090", deadlock_mode="record")
        runner = ClusterJobRunner(cluster, "dfccl", seed=1)
        # No legacy proxy: the adapter is the DFCCL instance itself.
        assert runner.backend.recovery_manager is not None
        for owner in (runner, runner.backend):
            with pytest.raises(AttributeError):
                owner.dfccl
        with pytest.raises(ConfigurationError):
            ClusterJobRunner(cluster, "bogus")

    def test_one_work_class_and_one_callback_store(self):
        """``Work`` is the one future over a ``CollectiveRun`` on every
        backend: the per-backend Work subclasses, their two callback stores
        and the one-line job-runner factory were deleted."""
        import repro.api as api
        import repro.api.dfccl_adapter as dfccl_adapter
        import repro.api.mpi_adapter as mpi_adapter
        import repro.api.nccl_adapter as nccl_adapter
        import repro.multijob as multijob
        import repro.multijob.runtime as runtime
        from repro.core.registration import Invocation
        from repro.ncclsim import NcclCollectiveOp

        for name in ("DfcclWork", "NcclWork", "MpiWork"):
            for module in (api, dfccl_adapter, nccl_adapter, mpi_adapter):
                assert not hasattr(module, name), (module.__name__, name)
        assert not hasattr(NcclCollectiveOp, "add_completion_callback")
        for name in ("set_callback", "callback_for", "mark_callback_fired"):
            assert not hasattr(Invocation, name), name
        for module in (multijob, runtime):
            assert not hasattr(module, "make_job_runner")
        work_classes = [name for name in api.__all__
                        if isinstance(getattr(api, name), type)
                        and issubclass(getattr(api, name), api.Work)]
        assert work_classes == ["Work"]

    def test_per_backend_drive_surfaces_are_gone(self):
        """Work is the only submit/wait surface: the handle, the NCCL op-list
        helpers and the per-backend spec builders were deleted."""
        import importlib

        import repro.core as core
        from repro.api import DfcclCollectiveBackend
        from repro.multijob import RankMappedPlan

        assert not hasattr(core, "InvocationHandle")
        with pytest.raises(ImportError):
            importlib.import_module("repro.ncclsim.program")
        for name in ("submit", "register_all_reduce", "init_all_ranks"):
            assert not hasattr(DfcclCollectiveBackend, name), name
        assert "__getattr__" not in vars(RankMappedPlan)

    def test_unused_layers_are_gone(self):
        """The NCCL adapter owns its plans, ops and kernel launch; the
        parameter profiler and the steps/sec ledger were deleted unused."""
        import importlib

        import repro.core as core
        import repro.ncclsim as ncclsim

        for module in ("repro.ncclsim.api", "repro.core.profiler",
                       "repro.bench.history"):
            with pytest.raises(ImportError):
                importlib.import_module(module)
        for name in ("NcclBackend", "NcclCommunicator"):
            assert not hasattr(ncclsim, name), name
        assert not hasattr(core, "AutoProfiler")

    def test_unreached_simulator_surface_is_gone(self):
        """The memory model, pinned-memory allocation and the one-line
        ``AlgorithmSelector.select`` wrapper were deleted unused."""
        import importlib

        import repro.gpusim as gpusim
        import repro.gpusim.host as host
        from repro.collectives import AlgorithmSelector

        with pytest.raises(ImportError):
            importlib.import_module("repro.gpusim.memory")
        for name in ("MemoryAccountant", "PinnedHostAllocator"):
            assert not hasattr(gpusim, name), name
        assert not hasattr(host, "AllocPinnedMemory")
        assert not hasattr(AlgorithmSelector, "select")

    def test_one_primitive_loop(self):
        """``PrimitiveExecutor.burst`` is the only way to execute primitives:
        the per-primitive entry point and the two kernels' own step loops
        were deleted, and the step limit is one shared constant."""
        from repro.collectives.primitives import PrimitiveExecutor
        from repro.core import config
        from repro.core.scheduling import TaskEntry
        from repro.ncclsim.kernels import NcclCollectiveKernel

        assert not hasattr(PrimitiveExecutor, "try_execute_current")
        assert not hasattr(NcclCollectiveKernel, "PRIMITIVES_PER_STEP")
        assert not hasattr(config, "PRIMITIVES_PER_STEP")
        assert not hasattr(TaskEntry, "boost_spin")

    def test_one_ring_pass_and_one_pair_of_tree_phases(self):
        """Every schedule is compiled from ``_ring``, the two tree phases and
        the all-to-all exchange: the per-collective builders and the
        ``primitive_count`` helper were deleted."""
        import repro.collectives as collectives
        from repro.collectives import sequences

        for name in ("_ring_peers", "_all_reduce_loop", "_all_gather_loop",
                     "_reduce_scatter_loop", "_chain_loop",
                     "_broadcast_tree_loop", "_reduce_tree_loop",
                     "_hierarchical_all_reduce_loop", "primitive_count"):
            assert not hasattr(sequences, name), name
        assert not hasattr(collectives, "primitive_count")

    def test_schedules_are_runs_not_primitive_lists(self):
        """A compiled schedule is loop bodies of runs: the shared-int table
        that deduplicated the fields of expanded primitive lists and the
        per-loop primitive builders were deleted."""
        import inspect

        from repro.collectives import sequences
        from repro.collectives.primitives import PrimitiveOutcome

        for name in ("_SharedInts", "_INTS", "_all_to_all_loop",
                     "_all_reduce_tree_loop"):
            assert not hasattr(sequences, name), name
        assert "primitive" not in inspect.signature(PrimitiveOutcome).parameters

    def test_single_cost_model_and_channel_depth(self):
        """Every backend prices primitives with the ``collectives.cost``
        constants and builds channels ``Channel.DEFAULT_CAPACITY`` deep:
        neither is a parameter any more, and the MPI model is module
        constants only."""
        import inspect

        import repro.collectives.cost as cost
        from repro.collectives import AlgorithmSelector, CollectivePlan
        from repro.collectives.channels import Communicator
        from repro.collectives.primitives import PrimitiveExecutor
        from repro.core import CommunicatorPool

        cluster = build_cluster("single-3090")
        with pytest.raises(TypeError):
            make_backend("nccl", cluster, cost_model=None)
        for knob in ("model", "alpha_us", "beta_gbps"):
            with pytest.raises(TypeError):
                make_backend("mpi", cluster, **{knob: None})
        for owner in (AlgorithmSelector, CollectivePlan, PrimitiveExecutor):
            assert "cost_model" not in inspect.signature(owner).parameters
        for owner in (Communicator, CommunicatorPool):
            assert "channel_capacity" not in inspect.signature(owner).parameters
        assert not hasattr(cost, "CostModel")

    def test_one_dfccl_object_and_one_job_name(self):
        """The DFCCL adapter is the library instance (no inner backend), a
        group's ``job`` is the only job name (no views, no nccl ``tenant=``),
        and the write-only context records and the collective-level rejoin
        were deleted unreached."""
        import repro.core as core
        import repro.core.context as context
        from repro.core import RecoveryManager, RegisteredCollective

        assert not hasattr(core, "DfcclBackend")
        cluster = build_cluster("single-3090")
        for name in ("dfccl", "nccl", "mpi"):
            assert not hasattr(make_backend(name, cluster), "job_view"), name
        with pytest.raises(TypeError):
            make_backend("nccl", cluster, tenant="job-a")
        for knob in ("dfccl", "job"):
            with pytest.raises(TypeError):
                make_backend("dfccl", cluster, **{knob: None})
        for name in ("CollectiveContextBuffer", "DynamicContext"):
            assert not hasattr(core, name) and not hasattr(context, name), name
        assert not hasattr(RecoveryManager, "rejoin")
        assert not hasattr(RegisteredCollective, "grow")

    def test_one_program_driver(self):
        """Chaos runs replay through the fuzzer's ``replay_program``: the
        chaos-only runner, its result type and the primitive serializer were
        deleted, and ``repro.faults`` no longer re-exports the scenarios."""
        import repro.faults as faults
        import repro.faults.scenarios as scenarios
        import repro.testing.differential as differential

        for name in ("ChaosResult", "run_chaos", "_survivors",
                     "contribution_values"):
            assert not hasattr(scenarios, name), name
        assert not hasattr(differential, "primitive_identity")
        for name in ("ChaosResult", "run_chaos", "chaos_rank_crash_comparison",
                     "contribution_values", "run_dfccl_chaos", "run_nccl_chaos"):
            assert not hasattr(faults, name), name

    def test_wall_seconds_are_the_only_host_time_metric(self):
        """The steps/sec speedup helpers, the sweep's repeats and analysis
        switch, the unread fault-scenario table and the lazy fuzz re-exports
        were deleted; a scale row carries ``wall_s`` as its one host time."""
        import inspect

        import repro.bench as bench
        import repro.bench.scale_experiments as scale
        import repro.deadlock as deadlock
        import repro.deadlock.fault_scenarios as fault_scenarios
        import repro.testing as testing

        for name in ("best_of", "speedup_vs_pre_pr", "PRE_PR_BASELINE"):
            assert not hasattr(bench, name) and not hasattr(scale, name), name
        assert list(inspect.signature(scale.scale_sweep).parameters) == [
            "points", "nbytes", "iterations"]
        for name in ("FAULT_DEADLOCK_SCENARIOS", "FaultScenarioSpec"):
            assert not hasattr(deadlock, name), name
            assert not hasattr(fault_scenarios, name), name
        assert "__getattr__" not in vars(testing)
        assert not hasattr(testing, "minimize_program")
        row = scale.run_scale_point(8, iterations=1)
        assert set(row) == {
            "ranks", "topology", "backend", "algorithm", "nbytes",
            "iterations", "completed", "steps", "wall_s", "virtual_time_us",
            "queue_stats", "observed", "calibration"}

    def test_recovery_rebinds_in_place(self):
        """Recovery rebinds the running daemon's task entries: the restart
        request, its flag and counter, and the alive flag that shadowed
        ``current_daemon`` were deleted."""
        from repro.core.daemon import DaemonKernel
        from repro.core.scheduling import DaemonStats

        cluster = build_cluster("single-3090")
        context = make_backend("dfccl", cluster).init_rank(0)
        assert not hasattr(DaemonKernel, "request_restart")
        assert not hasattr(DaemonKernel(context, 1), "_restart_requested")
        assert not hasattr(DaemonStats(), "recovery_restarts")
        assert not hasattr(context, "_daemon_alive")
        assert not context.daemon_alive

    def test_one_multitenant_driver(self):
        """``run_multijob`` is the only multi-tenant driver: the control-plane
        experiment module, its wrapper and stream name, and the mid-run grow
        option (now an action) were deleted, as were the NCCL kernel's wait
        introspection and the NCCL adapter's orchestrator option."""
        import importlib
        import inspect

        import repro.api.backend as api_backend
        import repro.bench as bench
        from repro.collectives.primitives import PrimitiveExecutor
        from repro.ncclsim.kernels import NcclCollectiveKernel

        with pytest.raises(ImportError):
            importlib.import_module("repro.bench.controlplane_experiments")
        for name in ("run_controlplane", "controlplane_job_stream"):
            assert not hasattr(bench, name), name
        assert "grow_at_us" not in inspect.signature(
            bench.run_multijob).parameters
        assert not hasattr(NcclCollectiveKernel, "waiting_on")
        assert not hasattr(PrimitiveExecutor, "peek_blockers")
        with pytest.raises(TypeError):
            make_backend("nccl", build_cluster("single-3090"),
                         orchestrator="megatron")
        assert not hasattr(api_backend, "resolve_orchestrator")
        assert not hasattr(api_backend.CollectiveBackend, "orchestrator_for")
        with pytest.raises(ImportError):
            importlib.import_module("repro.orchestration")

    def test_one_coordination_cost_table(self):
        """The CPU-orchestration baselines are one cost table,
        ``coordination_cost``: orchestrator instances, BytePS and the
        ``-static`` / ``-manual`` input aliases were deleted with
        ``repro.orchestration`` (pinned above)."""
        import repro.workloads.backends as backends

        assert not hasattr(backends, "resolve_orchestrator")
        cluster = build_cluster("single-3090")
        for orchestrator in (object(), "byteps", "oneflow-static",
                             "megatron-manual"):
            with pytest.raises(ConfigurationError):
                GroupTrainingBackend(cluster, "nccl", orchestrator=orchestrator)

    def test_one_single_job_driver(self):
        """The benchmark harnesses install a ``collective_program`` through
        ``install_program``: the chaos-only program builder, the hand-built
        host-program loops, the analytic MPI bandwidth helper and the job
        runner's orchestrator factory were deleted, and ``perf_report`` takes
        one rank's Works."""
        import inspect

        import repro.bench.collective_perf as collective_perf
        import repro.bench.scale_experiments as scale
        import repro.faults.scenarios as scenarios
        import repro.obs.report as report
        from repro.api import CollectiveBackend
        from repro.multijob import ClusterJobRunner
        import repro.ncclsim.mpi_baseline as mpi_baseline

        assert not hasattr(scenarios, "chaos_program")
        for module in (collective_perf, scale, report, scenarios):
            assert "HostProgram(" not in inspect.getsource(module), module
        assert not hasattr(mpi_baseline, "all_reduce_bandwidth_gbps")
        assert "orchestrator_factory" not in inspect.signature(
            ClusterJobRunner).parameters
        with pytest.raises(TypeError):
            ClusterJobRunner(build_cluster("single-3090"), "dfccl",
                             orchestrator_factory=lambda spec: "auto")
        assert list(inspect.signature(
            CollectiveBackend.perf_report).parameters) == ["self", "works"]

    def test_lean_data_plane_records(self):
        """A channel is a deque of arrival times and a primitive stores only
        its seven identity fields: the chunk message, its freelist, the
        channel's reference push/pop surface, the executor's unused
        position helpers and the communicator's ring helpers were deleted."""
        import inspect

        import repro.collectives as collectives
        import repro.collectives.channels as channels
        from repro.collectives import (
            Channel, Communicator, Primitive, PrimitiveExecutor)
        from repro.collectives.primitives import PRIM_SEND

        for module in (collectives, channels):
            assert not hasattr(module, "ChunkMessage"), module
        channel = Channel(0, 0, 1)
        for name in ("_fifo", "_free", "popped_count", "push", "pop", "head",
                     "readable", "writable", "occupancy"):
            assert not hasattr(channel, name), name
        for name in ("current", "progress_fraction", "save_dynamic_context",
                     "load_dynamic_context"):
            assert not hasattr(PrimitiveExecutor, name), name
        for name in ("ring_next", "ring_prev"):
            assert not hasattr(Communicator, name), name
        assert Primitive.__slots__ == ("action", "loop", "step", "chunk_index",
                                       "nbytes", "send_peer", "recv_peer")
        assert "name" not in inspect.signature(Primitive).parameters
        assert not hasattr(Primitive(PRIM_SEND, 0, 0, 0, 64, 1), "__dict__")

    def test_one_task_queue_length_record(self):
        """``DaemonStats.task_queue_length_samples`` is the only task-queue
        length record: the task queue's duplicate samples were deleted, and
        both spin policies name a position's threshold ``initial_threshold``
        (the adaptive policy's ``initial_for_position`` was deleted)."""
        from repro.core.scheduling import AdaptiveSpinPolicy, NaiveSpinPolicy

        assert not hasattr(AdaptiveSpinPolicy, "initial_for_position")
        assert AdaptiveSpinPolicy().initial_threshold(0) == 20_000
        assert NaiveSpinPolicy().initial_threshold(3) == 10_000

    def test_one_fabric_description(self):
        """``Interconnect`` only resolves the (possibly degraded) link
        between two devices of one ``TopologySpec``: its second hierarchy,
        device-level degradations, overrides and transfer formula were
        deleted, ``pix_group_size`` is set only on the ``TopologySpec``, and
        the unused unit conversions and introspection helpers went with
        them."""
        import dataclasses
        import inspect

        import repro.common.vtime as vtime
        import repro.gpusim.interconnect as interconnect
        from repro.common.types import LinkType
        from repro.core.api import RankContext
        from repro.faults.injector import FaultInjector
        from repro.gpusim.cluster import ClusterSpec
        from repro.gpusim.interconnect import Interconnect
        from repro.workloads.models import LayerSpec, ModelSpec

        for name in ("node_groups", "intra_node_chain", "inter_node_tree_edges",
                     "bottleneck_beta_gbps", "degrade_device_links",
                     "restore_device_links", "degraded_links", "override",
                     "transfer_time_us", "_remove_degradation",
                     "_degradation_for"):
            assert not hasattr(Interconnect, name), name
        fabric = Interconnect()
        for name in ("pix_group_size", "_device_degradations", "_overrides"):
            assert not hasattr(fabric, name), name
        assert list(inspect.signature(Interconnect).parameters) == ["topology"]
        assert not hasattr(interconnect, "_binomial_edges")
        assert not hasattr(LinkType, "transfer_time_us")
        assert "pix_group_size" not in {
            field.name for field in dataclasses.fields(ClusterSpec)}
        assert ClusterSpec().topology == interconnect.TopologySpec()
        assert not hasattr(ClusterSpec, "total_gpus")
        for name in ("us_to_ms", "us_to_s", "gbps_bytes_per_us"):
            assert not hasattr(vtime, name), name
        assert not hasattr(RankContext, "daemon_generation")
        assert not hasattr(FaultInjector, "applied_kinds")
        for spec in (LayerSpec, ModelSpec):
            assert not hasattr(spec, "param_bytes"), spec

    def test_fixed_parameters_are_constants(self):
        """Fixed values are module constants, not parameters: the primitive
        cost formula and its busy-time split are functions of
        ``collectives.cost``, the spin policies read ``core.config``, the SQ
        has one reader, the MPI model and the gpusim values nobody set are
        constants, streams keep only what the device reads, and the options
        that only faked a case are gone."""
        import dataclasses
        import inspect

        import repro.collectives.cost as cost
        import repro.faults.plan as fault_plan
        import repro.gpusim.stream as stream_module
        import repro.ncclsim as ncclsim
        import repro.obs.analysis as analysis
        from repro.api.mpi_adapter import MpiCollectiveBackend
        from repro.collectives import AlgorithmSelector, PrimitiveExecutor
        from repro.core.api import RankContext
        from repro.core.context import ActiveContextCache
        from repro.core.queues import SubmissionQueue
        from repro.core.scheduling import AdaptiveSpinPolicy, NaiveSpinPolicy
        from repro.gpusim import Engine
        from repro.gpusim.cluster import NodeSpec, multi_node_spec
        from repro.gpusim.device import GpuDevice
        from repro.gpusim.interconnect import TopologySpec
        from repro.gpusim.stream import Stream
        from repro.workloads import GroupTrainingBackend

        def parameters(owner):
            return inspect.signature(owner).parameters

        for name in ("CostModel", "DEFAULT_COST_MODEL"):
            assert not hasattr(cost, name), name
        assert list(parameters(cost.primitive_time_us)) == [
            "nbytes", "link", "touches_memory"]
        assert not hasattr(PrimitiveExecutor, "cost_model")
        assert not hasattr(analysis, "_split_busy")
        assert not parameters(AdaptiveSpinPolicy)
        assert not parameters(NaiveSpinPolicy)
        assert list(parameters(SubmissionQueue)) == ["capacity"]
        for name in ("register_consumer", "peek", "pending"):
            assert not hasattr(SubmissionQueue, name), name
        for name in ("num_consumers", "submitted", "retired",
                     "_consumer_tails", "_read_counters"):
            assert not hasattr(SubmissionQueue(), name), name
        backend = make_backend("dfccl", build_cluster("single-3090"))
        assert isinstance(backend.init_rank(0), RankContext)
        assert not hasattr(backend.init_rank(0), "consumer_id")
        assert not hasattr(ncclsim, "CudaAwareMpiModel")
        for knob in ("alpha_us", "beta_gbps"):
            assert knob not in parameters(MpiCollectiveBackend), knob
        assert "launch_overhead_us" not in parameters(GpuDevice)
        assert "max_resident_blocks" not in {
            field.name for field in dataclasses.fields(NodeSpec)}
        assert "spine_alpha_extra_us" not in {
            field.name for field in dataclasses.fields(TopologySpec)}
        assert "max_steps" not in parameters(Engine)
        assert "max_steps" not in parameters(build_cluster)
        assert not hasattr(Engine(), "max_steps")
        assert "name_prefix" not in parameters(multi_node_spec)
        assert list(parameters(ncclsim.grid_size_for)) == ["nbytes"]
        assert not hasattr(stream_module, "StreamItem")
        assert list(parameters(Stream)) == ["name"]
        assert set(vars(Stream("s"))) == {"name", "pending", "active"}
        for name in ("head", "pop_head", "drop_pending", "pending_items",
                     "__len__", "enqueue"):
            assert not hasattr(Stream, name), name
        device = build_cluster("single-3090").device(0)
        assert not hasattr(device, "default_stream")
        assert list(device.streams) == ["default"]
        for knob in ("shuffle_submissions", "rng"):
            assert knob not in parameters(GroupTrainingBackend), knob
        for owner, name in ((ActiveContextCache, "clock"),
                            (AlgorithmSelector, "interconnect")):
            assert parameters(owner)[name].default is inspect.Parameter.empty
        assert not hasattr(fault_plan, "TRANSIENT_KINDS")

    def test_one_executor_path(self):
        """The run compiles, caches and traces every rank's executor on both
        backends: the per-backend compile, cache and sequence methods, the
        plan's two placement helpers, the collective-level rooted flag, the
        executor's unread collective id, the callable host program and the
        unused Fig. 8 sweep were deleted."""
        import inspect

        import repro.bench as bench
        import repro.bench.collective_perf as collective_perf
        from repro.collectives import CollectivePlan, PrimitiveExecutor
        from repro.collectives.plan import CollectiveRun
        from repro.core.registration import Invocation, RegisteredCollective
        from repro.gpusim import HostProgram
        from repro.ncclsim import NcclCollectiveOp

        for name in ("make_executor", "rooted"):
            assert not hasattr(RegisteredCollective, name), name
        for name in ("executor_for", "executor_if_cached",
                     "primitive_sequence"):
            assert name not in vars(Invocation), name
        for name in ("executor_for", "primitive_sequence"):
            assert name not in vars(NcclCollectiveOp), name
        assert not hasattr(CollectiveRun, "trace_executor")
        for name in ("virtual_rank", "island_size_of"):
            assert not hasattr(CollectivePlan, name), name
        assert list(inspect.signature(PrimitiveExecutor).parameters) == [
            "group_rank", "communicator", "schedule"]
        with pytest.raises(TypeError):
            HostProgram(lambda host: []).iterator(None)
        for name in ("sweep_bandwidth_latency", "FIG8_SIZES_SINGLE",
                     "FIG8_SIZES_MULTI"):
            assert not hasattr(collective_perf, name), name
            assert not hasattr(bench, name), name

    @pytest.mark.parametrize("module", [
        "repro.testing", "repro.testing.differential", "repro.faults",
        "repro.faults.scenarios", "repro.bench", "repro.obs.report",
    ])
    def test_imports_first_in_a_fresh_interpreter(self, module):
        """``repro.testing`` and ``repro.faults`` import each other's
        modules; a shared test process hides a cycle that only breaks when
        one particular package is imported first."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        completed = subprocess.run([sys.executable, "-c", f"import {module}"],
                                   env=env, capture_output=True, text=True,
                                   timeout=120)
        assert completed.returncode == 0, completed.stderr

    def test_two_daemon_waits_and_job_local_plans(self):
        """An idle daemon waits as a pass over an empty task queue, so the
        idle SQ wait and its retry times were deleted; every
        ``ParallelPlan`` is job-local, so its ``base_rank`` option went."""
        import inspect

        from repro.core.daemon import DaemonKernel
        from repro.workloads import ParallelPlan, resnet50_model

        for name in ("_wait_for_sqes", "_idle_poll_times"):
            assert not hasattr(DaemonKernel, name), name
        assert "base_rank" not in inspect.signature(ParallelPlan).parameters
        plan = ParallelPlan(resnet50_model(), dp=2)
        assert not hasattr(plan, "base_rank")
        assert plan.ranks() == [0, 1]

    def test_the_engine_numbers_every_object(self):
        """Ids come from the run's engine: the process-global id counters
        and by-id registries were deleted, and so was the never-read SQE
        id."""
        import inspect

        import repro.api.mpi_adapter as mpi_adapter
        import repro.collectives.channels as channels
        import repro.core.recovery as recovery
        import repro.ncclsim.ops as ops
        from repro.core.queues import Sqe

        for module, names in (
                (channels, ("channel_by_id", "_channel_ids",
                            "_communicator_ids", "_channels_by_id")),
                (ops, ("op_by_id", "_op_ids", "_ops_by_id")),
                (mpi_adapter, ("_mpi_op_ids",))):
            for name in names:
                assert not hasattr(module, name), name
        assert not hasattr(Sqe(0, 0), "sqe_id")
        assert "id(backend)" not in inspect.getsource(recovery)

    def test_unread_state_is_gone(self):
        """State nothing in the program read was deleted (each recorder
        ring's ``maxlen`` is its capacity; ``obs.dumps[-1]`` the last dump)."""
        import inspect

        from repro.core import poller
        from repro.gpusim import device, engine, host
        from repro.multijob import runtime
        from repro.obs import observability, recorder
        from repro.workloads import parallelism

        source = "".join(map(inspect.getsource, (
            engine, poller, host, device, runtime, recorder, observability,
            parallelism)))
        for name in ("SIGNAL_LOG_LIMIT", "_signal_log", "callbacks_run",
                     "executed_ops", "launch_count", "sync_count",
                     "kernel_complete_count", "backend_flavor",
                     "self.event_capacity", "self.span_capacity", "last_dump",
                     "self.num_experts"):
            assert name not in source, name

    def test_one_account_of_each_fact(self):
        """Shadow copies of a fact kept equal by hand were deleted: the task
        queue is a plain list of identity-compared entries, an executor's
        ``position`` is its count of executed primitives, a context's
        in-flight map its outstanding count, a collective's generation its
        plan's, the invocation's per-rank total its context-switch count,
        the ``DaemonStats`` delta its replayed spin polls, ``cache_misses``
        its context loads, RUNNING jobs' leases the scheduler's load, and
        the plan its algorithm and cost prediction.  Actors register one by
        one."""
        import dataclasses
        import inspect

        import repro.core as core
        import repro.core.scheduling as scheduling
        from repro.core.context import ContextStats
        from repro.core.scheduling import TaskEntry
        from repro.gpusim.engine import Engine
        from repro.multijob.scheduler import ClusterScheduler

        assert not hasattr(scheduling, "TaskQueue")
        assert not hasattr(core, "TaskQueue")
        assert TaskEntry.__eq__ is object.__eq__
        fields = {field.name for field in dataclasses.fields(TaskEntry)}
        assert not fields & {"context_switches", "spin_polls"}
        assert "loads" not in {field.name
                               for field in dataclasses.fields(ContextStats)}
        backend = make_backend("dfccl", build_cluster("single-3090"))
        run = backend.new_group([0, 1]).all_reduce(0, count=1 << 10).run
        assert not hasattr(backend.contexts[0], "outstanding")
        for name in ("generation", "algorithm", "predicted_cost_us",
                     "predicted_breakdown", "_next_generation"):
            assert not hasattr(run.coll, name), name
        for name in ("_participants", "_signature"):
            assert not hasattr(run, name), name
        assert not hasattr(run.executor_for(0), "executed_primitives")
        assert not hasattr(Engine, "add_actors")
        assert "self.load" not in inspect.getsource(ClusterScheduler)


class TestNoInternalStringDispatch:
    def test_no_backend_string_branches_outside_registry(self):
        """Acceptance: zero ``backend == "dfccl"`` branches outside repro/api."""
        import pathlib
        import re

        root = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        pattern = re.compile(r"""(?:backend|flavor)\s*==\s*['"](?:dfccl|nccl|mpi)['"]""")
        offenders = []
        for path in root.rglob("*.py"):
            if "api" in path.parts:
                continue
            if pattern.search(path.read_text()):
                offenders.append(str(path))
        assert offenders == []

    def test_only_api_adapters_drive_collectives(self):
        """Outside repro/api no module submits a DFCCL invocation or builds
        an NCCL kernel: the adapters' Work classes are the only drivers."""
        import pathlib
        import re

        root = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        pattern = re.compile(
            r"\.submit_invocation\(|(?<!class )NcclCollectiveKernel\(")
        offenders = [str(path) for path in root.rglob("*.py")
                     if "api" not in path.parts and pattern.search(path.read_text())]
        assert offenders == []


class TestNoUnreferencedDefinitions:
    #: Names defined under ``src/repro`` that nothing in the program uses,
    #: kept on purpose (one reason each).
    ALLOWED = {
        "started_at_us": "Work surface documented in docs/architecture.md",
        "finished_at_us": "Work surface documented in docs/architecture.md",
        "SleepKernel": "the compute kernel the device and fault tests launch",
        "has_cycle": "repro.deadlock models the paper directly (out of scope)",
        "overlap_degree": "repro.deadlock models the paper directly (out of scope)",
    }
    #: Attributes set under ``src/repro`` that nothing in the program reads,
    #: kept on purpose (one reason each).
    ALLOWED_ATTRIBUTES = {
        "launch_time_us": "a kernel's lifetime, which the contention and "
                          "stall tests measure",
        "complete_time_us": "a kernel's lifetime, which the contention and "
                            "stall tests measure",
    }

    @staticmethod
    def _sources():
        """``path -> text`` of every module in ``src/``, ``benchmarks/``,
        ``examples/`` and ``perfbench/``, and the ``src/repro`` folder."""
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        texts = {path: path.read_text()
                 for folder in ("src", "benchmarks", "examples", "perfbench")
                 for path in (root / folder).rglob("*.py")}
        return texts, root / "src" / "repro"

    @classmethod
    def _unreferenced(cls, defined):
        """Names ``defined(tree)`` yields for the modules under
        ``src/repro`` that occur nowhere in ``src/``, ``benchmarks/``,
        ``examples/`` or ``perfbench/`` besides their own definitions."""
        import collections
        import re

        texts, package = cls._sources()
        definitions = collections.Counter()
        for path, text in texts.items():
            if package in path.parents:
                definitions.update(defined(ast.parse(text)))
        occurrences = collections.Counter()
        for text in texts.values():
            occurrences.update(re.findall(r"[A-Za-z_]\w*", text))
        return {name for name, count in definitions.items()
                if occurrences[name] <= count}

    def test_every_definition_is_referenced(self):
        """Every ``def`` / ``class`` name under ``src/repro`` occurs somewhere
        in ``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/`` besides
        its own definitions; a name only its own tests use is deleted."""
        def defined(tree):
            for node in ast.walk(tree):
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                        and not (node.name.startswith("__")
                                 and node.name.endswith("__"))):
                    yield node.name

        assert self._unreferenced(defined) == set(self.ALLOWED)

    def test_every_module_constant_is_referenced(self):
        """The same rule for module-level ``UPPER_CASE`` assignments: a
        constant nothing reads is deleted."""
        def defined(tree):
            for node in tree.body:
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    if (isinstance(target, ast.Name)
                            and target.id.isupper()):
                        yield target.id

        assert self._unreferenced(defined) == set()

    def test_every_attribute_is_read(self):
        """The same rule for state: every ``self.<name> = ...`` under
        ``src/repro`` has a load of ``.<name>``, or a ``"<name>"`` string,
        somewhere in the program; an attribute only tests read is deleted."""
        texts, package = self._sources()
        assigned, read = set(), set()
        for path, text in texts.items():
            in_package = package in path.parents
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.Attribute):
                    if isinstance(node.ctx, ast.Load):
                        read.add(node.attr)
                    elif (in_package and isinstance(node.ctx, ast.Store)
                          and isinstance(node.value, ast.Name)
                          and node.value.id == "self"):
                        assigned.add(node.attr)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    read.add(node.value)
        assert assigned - read == set(self.ALLOWED_ATTRIBUTES)
