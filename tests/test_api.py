"""Tests for the unified ``repro.api`` front-end.

Covers the backend registry, ProcessGroup call semantics, Work futures,
full training runs driven through ``make_backend`` + ``ProcessGroup`` on
every backend, and that the removed per-backend surfaces stay removed.
"""

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

    def test_nccl_job_view_keeps_knobs_and_tags_kernels(self):
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
            kernel = work.run.kernel(work.group_rank)
            assert kernel.tenant == "job-a"
            assert kernel.stream.name == "comm-job-a"

    def test_group_job_is_the_only_job_name(self):
        """``new_group(job=)`` reaches everything a job name controls: the
        nccl op, its kernels and their stream, and the dfccl collective id."""
        cluster = build_cluster("single-3090")
        nccl = make_backend("nccl", cluster)
        group = nccl.new_group([0, 1], job="job-a")
        works = [group.all_reduce(rank, count=256) for rank in group.ranks]
        cluster.add_hosts([HostProgram(work.ops()) for work in works])
        cluster.run()
        for work in works:
            kernel = work.run.kernel(work.group_rank)
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

    def test_single_cost_model_and_channel_depth(self):
        """Every backend prices primitives with ``DEFAULT_COST_MODEL`` and
        builds channels ``Channel.DEFAULT_CAPACITY`` deep: neither is a
        parameter any more, and the MPI model comes from ``alpha_us`` /
        ``beta_gbps`` only."""
        import inspect

        from repro.collectives import AlgorithmSelector, CollectivePlan
        from repro.collectives.channels import Communicator
        from repro.collectives.cost import CostModel
        from repro.collectives.primitives import PrimitiveExecutor
        from repro.core import CommunicatorPool

        cluster = build_cluster("single-3090")
        with pytest.raises(TypeError):
            make_backend("nccl", cluster, cost_model=CostModel())
        with pytest.raises(TypeError):
            make_backend("mpi", cluster, model=None)
        for owner in (AlgorithmSelector, CollectivePlan, PrimitiveExecutor):
            assert "cost_model" not in inspect.signature(owner).parameters
        for owner in (Communicator, CommunicatorPool):
            assert "channel_capacity" not in inspect.signature(owner).parameters
        assert not hasattr(CostModel(), "sq_check_cost_us")

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
        from repro.ncclsim import CudaAwareMpiModel

        assert not hasattr(scenarios, "chaos_program")
        for module in (collective_perf, scale, report, scenarios):
            assert "HostProgram(" not in inspect.getsource(module), module
        assert not hasattr(CudaAwareMpiModel, "all_reduce_bandwidth_gbps")
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
        channel = Channel(0, 1)
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
