"""Multi-tenant scheduler: specs, arrivals, runtime mapping, end-to-end runs."""

import hashlib
import json

import pytest

from repro.bench import multijob_under_churn, preemption_ablation, run_multijob
from repro.common.errors import ConfigurationError
from repro.core.communicator_pool import CommunicatorPool
from repro.gpusim import SmInterferenceModel, build_cluster
from repro.multijob import (
    ClusterJobRunner,
    JobSpec,
    JobState,
    RankMappedPlan,
    generate_jobs,
    install_scheduler,
)
from repro.multijob.arrivals import estimate_standalone_us, zipf_weights
from repro.workloads.parallelism import CollectiveItem


class TestJobSpec:
    def test_world_size_and_samples(self):
        spec = JobSpec(job_id="a", tp=2, dp=2, pp=2, iterations=3,
                       microbatch_size=16, num_microbatches=2)
        assert spec.world_size == 8
        assert spec.total_samples == 16 * 2 * 2 * 3

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(ConfigurationError):
            JobSpec(job_id="", dp=2).validate()
        with pytest.raises(ConfigurationError):
            JobSpec(job_id="a", model="alexnet").validate()
        with pytest.raises(ConfigurationError):
            JobSpec(job_id="a", dp=0).validate()
        with pytest.raises(ConfigurationError):
            JobSpec(job_id="a", iterations=1, warmup=1).validate()
        with pytest.raises(ConfigurationError):
            JobSpec(job_id="a", arrival_time_us=-1.0).validate()

    def test_build_plan_is_job_local(self):
        plan = JobSpec(job_id="a", dp=4).build_plan()
        assert plan.ranks() == [0, 1, 2, 3]
        assert plan.world_size == 4

    def test_describe_schema(self):
        record = JobSpec(job_id="a", dp=2, priority=1).describe()
        for field in ("job_id", "model", "world_size", "priority",
                      "arrival_time_us", "slo_us"):
            assert field in record


class TestArrivals:
    def test_same_seed_same_stream(self):
        first = generate_jobs(42, num_jobs=8)
        second = generate_jobs(42, num_jobs=8)
        assert [spec.describe() for spec in first] == \
            [spec.describe() for spec in second]

    def test_different_seed_differs(self):
        first = generate_jobs(42, num_jobs=8)
        second = generate_jobs(43, num_jobs=8)
        assert [spec.describe() for spec in first] != \
            [spec.describe() for spec in second]

    def test_zipf_weights_decrease(self):
        weights = zipf_weights(4, exponent=1.2)
        assert weights == sorted(weights, reverse=True)

    def test_zipf_demand_skews_small(self):
        specs = generate_jobs(7, num_jobs=60, size_classes=(2, 4, 8))
        counts = {}
        for spec in specs:
            counts[spec.world_size] = counts.get(spec.world_size, 0) + 1
        assert counts.get(2, 0) > counts.get(8, 0)

    def test_arrivals_are_open_loop_and_monotonic(self):
        specs = generate_jobs(7, num_jobs=10)
        arrivals = [spec.arrival_time_us for spec in specs]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] == 0.0
        assert arrivals[-1] > 0.0

    def test_slo_derived_from_standalone_estimate(self):
        specs = generate_jobs(7, num_jobs=4, slo_stretch=6.0)
        for spec in specs:
            assert spec.slo_us == pytest.approx(
                6.0 * estimate_standalone_us(spec)
            )


class TestRankMappedPlan:
    def test_translates_group_ranks_onto_lease(self):
        plan = JobSpec(job_id="a", dp=4).build_plan()
        mapped = RankMappedPlan(plan, [5, 2, 9, 11])
        assert mapped.ranks() == [5, 2, 9, 11]
        schedule = mapped.iteration_schedule(9)
        collectives = [item for item in schedule
                       if isinstance(item, CollectiveItem)]
        assert collectives, "dp=4 schedule must contain all-reduces"
        for item in collectives:
            assert set(item.group_ranks) <= {5, 2, 9, 11}

    def test_rejects_wrong_lease_size_and_duplicates(self):
        plan = JobSpec(job_id="a", dp=4).build_plan()
        with pytest.raises(ConfigurationError):
            RankMappedPlan(plan, [0, 1, 2])
        with pytest.raises(ConfigurationError):
            RankMappedPlan(plan, [0, 1, 2, 2])

    def test_unique_collectives_are_mapped(self):
        plan = JobSpec(job_id="a", dp=2).build_plan()
        mapped = RankMappedPlan(plan, [6, 3])
        for item in mapped.unique_collectives().values():
            assert set(item.group_ranks) <= {6, 3}


class TestCommunicatorPoolNamespacing:
    def _pool(self):
        cluster = build_cluster("single-3090")
        return cluster, CommunicatorPool(cluster.interconnect)

    def test_jobs_never_share_pooled_communicators(self):
        cluster, pool = self._pool()
        devices = [cluster.device(0), cluster.device(1)]
        comm = pool.acquire(devices, job="job-a")
        pool.release(comm)
        other = pool.acquire(devices, job="job-b")
        assert other is not comm
        again = pool.acquire(devices, job="job-a")
        assert again is comm

    def test_stats_hits_misses_active(self):
        cluster, pool = self._pool()
        devices = [cluster.device(0), cluster.device(1)]
        comm = pool.acquire(devices, job="job-a")
        stats = pool.stats()
        assert stats["misses"] == 1 and stats["hits"] == 0
        assert stats["active"] == 1
        pool.release(comm)
        assert pool.stats()["active"] == 0
        pool.acquire(devices, job="job-a")
        stats = pool.stats()
        assert stats["hits"] == 1 and stats["active"] == 1

    def test_double_release_is_rejected_and_counted(self):
        cluster, pool = self._pool()
        devices = [cluster.device(0), cluster.device(1)]
        comm = pool.acquire(devices)
        assert pool.release(comm) is True
        assert pool.release(comm) is False
        stats = pool.stats()
        assert stats["double_releases"] == 1
        assert stats["free"] == 1
        # The guarded double release must not duplicate the pool entry.
        assert pool.acquire(devices) is comm
        assert pool.acquire(devices) is not comm

    def test_rerelease_of_discarded_communicator_is_counted(self):
        # A collective that shrinks to zero survivors keeps its invalidated
        # communicator; job teardown then releases it a second time.  The
        # guard must flag it instead of corrupting active/discarded counts.
        cluster, pool = self._pool()
        devices = [cluster.device(0), cluster.device(1)]
        comm = pool.acquire(devices, job="job-a")
        comm.invalidate()
        assert pool.release(comm) is False      # discarded
        stats = pool.stats()
        assert stats["discarded"] == 1 and stats["active"] == 0
        assert pool.release(comm) is False      # re-release of discarded
        stats = pool.stats()
        assert stats["double_releases"] == 1
        assert stats["discarded"] == 1          # not double-counted
        assert stats["active"] == 0             # not double-decremented

    def test_release_all_for_spans_all_jobs(self):
        cluster, pool = self._pool()
        devices = [cluster.device(0), cluster.device(1)]
        for job in ("job-a", "job-b"):
            pool.release(pool.acquire(devices, job=job))
        assert pool.stats()["free"] == 2
        dropped = pool.release_all_for([cluster.device(1)])
        assert dropped == 2
        assert pool.stats()["free"] == 0


def _shared_cluster(max_resident_blocks=8):
    return build_cluster("dual-3090", deadlock_mode="record",
                         max_resident_blocks=max_resident_blocks,
                         interference=SmInterferenceModel())


def _small_spec(job_id, arrival=0.0, model="resnet50", dp=2, priority=0,
                iterations=2):
    return JobSpec(job_id=job_id, model=model, dp=dp, iterations=iterations,
                   grad_buckets=2, priority=priority, arrival_time_us=arrival)


class TestSchedulerLifecycle:
    def test_rejects_oversized_and_duplicate_jobs(self):
        cluster = _shared_cluster()
        runner = ClusterJobRunner(cluster, "dfccl", seed=1)
        scheduler = install_scheduler(cluster, runner, [], policy="packed")
        with pytest.raises(ConfigurationError):
            scheduler.submit(JobSpec(job_id="big", dp=32))
        scheduler.submit(_small_spec("a"))
        with pytest.raises(ConfigurationError):
            scheduler.submit(_small_spec("a"))

    def test_queueing_when_capacity_exhausted(self):
        # A 4-GPU cluster with one tenant per GPU: the second job must queue
        # until the first finishes, and its queueing delay must be positive.
        cluster = build_cluster("single-3090", deadlock_mode="record",
                                max_resident_blocks=8)
        runner = ClusterJobRunner(cluster, "dfccl", seed=3, launch_jitter_us=0.0)
        specs = [
            JobSpec(job_id="first", dp=8, iterations=2, grad_buckets=2),
            JobSpec(job_id="second", dp=8, iterations=2, grad_buckets=2,
                    arrival_time_us=10.0),
        ]
        scheduler = install_scheduler(cluster, runner, specs,
                                      policy="packed", tenants_per_gpu=1)
        total = cluster.run(until_us=8_000_000)
        records = {record.job_id: record
                   for record in scheduler.finalize(total)}
        assert records["first"].state is JobState.COMPLETED
        assert records["second"].state is JobState.COMPLETED
        assert records["second"].queueing_delay_us > 0
        assert records["second"].start_time_us >= records["first"].finish_time_us

    def test_priority_order_served_first(self):
        cluster = build_cluster("single-3090", deadlock_mode="record",
                                max_resident_blocks=8)
        runner = ClusterJobRunner(cluster, "dfccl", seed=3, launch_jitter_us=0.0)
        specs = [
            JobSpec(job_id="running", dp=8, iterations=2, grad_buckets=2),
            # Both queued at t=10; the high-priority one must start first.
            JobSpec(job_id="low", dp=8, iterations=2, grad_buckets=2,
                    priority=0, arrival_time_us=10.0),
            JobSpec(job_id="high", dp=8, iterations=2, grad_buckets=2,
                    priority=5, arrival_time_us=10.0),
        ]
        scheduler = install_scheduler(cluster, runner, specs,
                                      policy="packed", tenants_per_gpu=1)
        total = cluster.run(until_us=20_000_000)
        records = {record.job_id: record
                   for record in scheduler.finalize(total)}
        assert all(record.state is JobState.COMPLETED
                   for record in records.values())
        assert records["high"].start_time_us < records["low"].start_time_us

    def test_metrics_rows_have_expected_fields(self):
        cluster = _shared_cluster()
        runner = ClusterJobRunner(cluster, "dfccl", seed=5)
        scheduler = install_scheduler(cluster, runner,
                                      [_small_spec("a"), _small_spec("b", 200.0)])
        total = cluster.run(until_us=8_000_000)
        scheduler.finalize(total)
        for row in scheduler.job_rows():
            for field in ("job", "state", "jct_us", "queueing_delay_us",
                          "goodput_samples_per_s", "leased_ranks"):
                assert field in row
        summary = scheduler.summary(total)
        assert summary["jobs"] == 2
        assert summary["completed"] == 2
        assert summary["stuck_ratio"] == 0.0
        assert summary["never_placed"] == 0
        assert summary["aggregate_goodput_samples_per_s"] > 0


class TestConcurrentJobsEndToEnd:
    def test_colocated_dfccl_jobs_complete_with_namespaced_pool(self):
        cluster = _shared_cluster()
        runner = ClusterJobRunner(cluster, "dfccl", seed=7)
        specs = [_small_spec("ten-a"), _small_spec("ten-b", arrival=100.0)]
        scheduler = install_scheduler(cluster, runner, specs,
                                      policy="packed", tenants_per_gpu=2)
        total = cluster.run(until_us=8_000_000)
        records = scheduler.finalize(total)
        assert all(record.state is JobState.COMPLETED for record in records)
        # Packed placement co-locates both jobs on the same GPUs.
        leases = [set(record.lease.ranks) for record in records]
        assert leases[0] & leases[1]
        # The shared pool holds entries for both job namespaces, none shared.
        jobs = runner.backend.pool.jobs()
        assert set(jobs) <= {"ten-a", "ten-b"}
        stats = runner.backend.pool.stats()
        assert stats["double_releases"] == 0

    def test_one_daemon_kernel_per_gpu_serves_both_jobs(self):
        cluster = _shared_cluster()
        runner = ClusterJobRunner(cluster, "dfccl", seed=7)
        specs = [_small_spec("ten-a"), _small_spec("ten-b")]
        scheduler = install_scheduler(cluster, runner, specs,
                                      policy="packed", tenants_per_gpu=2)

        # Snapshot mid-run evidence from a completion callback: while ten-b
        # is still running, the co-located rank contexts hold collectives of
        # BOTH namespaces (the rank context is keyed by GPU, not by job).
        observed = set()

        original = scheduler.on_rank_done

        def spying_on_rank_done(job_id, rank, time_us):
            ctx = runner.backend.contexts.get(rank)
            if ctx is not None:
                observed.update(coll_id[0] for coll_id in ctx.registered)
            original(job_id, rank, time_us)

        scheduler.on_rank_done = spying_on_rank_done
        cluster.run(until_us=8_000_000)
        scheduler.finalize(cluster.engine.now)
        assert observed == {"ten-a", "ten-b"}
        # Teardown unregistered everything and evicted each departed
        # tenant's pool namespace, so the shared backend stays bounded.
        assert all(len(ctx.registered) == 0
                   for ctx in runner.backend.contexts.values())
        assert runner.backend.pool.jobs() == []
        stats = runner.backend.pool.stats()
        assert stats["active"] == 0 and stats["free"] == 0
        assert stats["discarded"] > 0

    def test_cross_job_sm_contention_deadlocks_nccl_baseline(self):
        # Tight SM capacity: a full-GPU collective kernel fills the device.
        # Two co-located data-parallel jobs with per-iteration launch skew
        # interleave their dedicated kernels differently on different GPUs
        # and wedge in a cross-job hold-and-wait cycle.
        cluster = _shared_cluster(max_resident_blocks=4)
        runner = ClusterJobRunner(cluster, "nccl", seed=7,
                                  launch_jitter_us=300.0)
        specs = [
            _small_spec("ten-a", dp=4, iterations=3),
            _small_spec("ten-b", dp=4, iterations=3, arrival=40.0),
        ]
        scheduler = install_scheduler(cluster, runner, specs,
                                      policy="packed", tenants_per_gpu=2)
        total = cluster.run(until_us=8_000_000)
        scheduler.finalize(total)
        assert cluster.engine.deadlock_report is not None
        summary = scheduler.summary(total)
        assert summary["unfinished"] >= 1
        assert sum(device.cross_tenant_block_waits
                   for device in cluster.devices) > 0

    def test_same_scenario_completes_under_dfccl(self):
        cluster = _shared_cluster(max_resident_blocks=4)
        runner = ClusterJobRunner(cluster, "dfccl", seed=7,
                                  launch_jitter_us=300.0)
        specs = [
            _small_spec("ten-a", dp=4, iterations=3),
            _small_spec("ten-b", dp=4, iterations=3, arrival=40.0),
        ]
        scheduler = install_scheduler(cluster, runner, specs,
                                      policy="packed", tenants_per_gpu=2)
        total = cluster.run(until_us=8_000_000)
        records = scheduler.finalize(total)
        assert cluster.engine.deadlock_report is None
        assert all(record.state is JobState.COMPLETED for record in records)


class TestChurnEdgeCases:
    def test_crash_after_last_survivor_completion_degrades_job(self):
        # The crash eliminates the job's last outstanding rank AFTER every
        # survivor already ran its completion hook: no further hook will ever
        # fire, so the parked scheduler must be woken by the device-failure
        # signal itself and reap the job as degraded (not leave it running
        # until the deadline).
        from repro.faults.injector import install_fault_plan
        from repro.faults.plan import FaultPlan

        cluster = build_cluster("single-3090", deadlock_mode="record",
                                max_resident_blocks=8)
        runner = ClusterJobRunner(cluster, "dfccl", seed=3, launch_jitter_us=0.0)
        spec = JobSpec(job_id="solo", dp=2, iterations=2, grad_buckets=2)
        scheduler = install_scheduler(cluster, runner, [spec],
                                      policy="packed", tenants_per_gpu=1)
        plan = (FaultPlan(name="late-crash")
                .add_straggler(1, at_us=100.0, factor=30.0)
                .add_crash(1, at_us=872_800.0))
        install_fault_plan(cluster, plan)
        deadline = 8_000_000
        total = cluster.run(until_us=deadline)
        records = scheduler.finalize(total)
        assert records[0].state is JobState.DEGRADED
        assert records[0].finish_time_us is not None
        # The reap happened at crash time, not at the deadline.
        assert total < deadline / 2


#: Summary keys every scheduler run reports, plus the ones the preemptive
#: runs report; later keys may be added without breaking the pins below.
_SUMMARY_KEYS = ("jobs", "completed", "degraded", "unfinished", "never_placed",
                 "stuck_ratio", "mean_jct_us", "max_jct_us",
                 "mean_queueing_delay_us", "aggregate_goodput_samples_per_s",
                 "slo_attainment")
_MULTIJOB_KEYS = _SUMMARY_KEYS + ("deadlock_ratio",)
_SERVICE_KEYS = _SUMMARY_KEYS + ("rejected", "preemptions", "preempted_jobs",
                                 "resumed_jobs", "migrations", "rejoins",
                                 "grow_events", "starved")


def _digest(result, summary_keys):
    """Short sha256 over the summary values, job rows and event log."""
    payload = {
        "summary": {key: result["summary"][key] for key in summary_keys},
        "jobs": result["jobs"],
        "events": result["events"],
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestSchedulerExactness:
    """Bit-exact pins of the scheduler's outcomes on the benchmark streams.

    One scheduler class serves both the run-to-completion experiments and
    the preemptive ones; these pins keep the first from preempting or
    rejoining and the second from drifting.  Each case pins the final
    virtual time, the headline counts and a digest of the summary values,
    job rows and event log.
    """

    def _check(self, result, summary_keys, time_us, counts, digest):
        summary = result["summary"]
        assert result["time_us"] == time_us
        assert {key: summary[key] for key in counts} == counts
        assert _digest(result, summary_keys) == digest

    def test_run_multijob_packed_nccl(self):
        self._check(run_multijob(backend="nccl", seed=11), _MULTIJOB_KEYS,
                    612984.5055525465,
                    {"completed": 2, "degraded": 0, "unfinished": 2},
                    "c69a2990fd029484")

    def test_run_multijob_packed_dfccl(self):
        self._check(run_multijob(backend="dfccl", seed=11), _MULTIJOB_KEYS,
                    618847.3055525518,
                    {"completed": 4, "degraded": 0, "unfinished": 0},
                    "6d074273d9b7fc1f")

    def test_churn_degrades_without_rejoin(self):
        self._check(multijob_under_churn(seed=11, num_jobs=3), _MULTIJOB_KEYS,
                    447109.81060921826,
                    {"completed": 3, "degraded": 2, "unfinished": 0},
                    "d78e92fcd7fc2d68")

    def test_preemption_ablation(self):
        pair = preemption_ablation(seed=11)
        self._check(pair["preemption"], _SERVICE_KEYS, 1354712.9987715955,
                    {"completed": 14, "preemptions": 5, "rejoins": 0},
                    "c12c69455edd9044")
        self._check(pair["baseline"], _SERVICE_KEYS, 1290035.8042624996,
                    {"completed": 14, "preemptions": 0, "rejoins": 0},
                    "965dfde2378abf6a")


class TestInterferenceModel:
    def test_factor_only_bites_with_multiple_tenants(self):
        model = SmInterferenceModel(slope=0.5, cap=3.0)
        assert model.factor(1, 8, 8) == 1.0
        assert model.factor(2, 8, 8) == pytest.approx(1.5)
        assert model.factor(2, 4, 8) == pytest.approx(1.25)
        assert model.factor(10, 8, 8) == 3.0  # capped

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SmInterferenceModel(slope=-1.0).validate()
        with pytest.raises(ConfigurationError):
            SmInterferenceModel(cap=0.5).validate()

    def test_coresident_tenants_dilate_each_other(self):
        from repro.gpusim.device import SleepKernel

        cluster = build_cluster("single-3090", max_resident_blocks=8,
                                interference=SmInterferenceModel(slope=1.0))
        device = cluster.device(0)
        alone = SleepKernel("alone", device, duration_us=100.0, grid_size=4)
        alone.tenant = "job-a"
        device.enqueue_kernel(alone, "s1", 0.0)
        cluster.run()
        alone_duration = alone.complete_time_us - alone.launch_time_us

        cluster = build_cluster("single-3090", max_resident_blocks=8,
                                interference=SmInterferenceModel(slope=1.0))
        device = cluster.device(0)
        first = SleepKernel("first", device, duration_us=100.0, grid_size=4)
        first.tenant = "job-a"
        second = SleepKernel("second", device, duration_us=100.0, grid_size=4)
        second.tenant = "job-b"
        device.enqueue_kernel(first, "s1", 0.0)
        device.enqueue_kernel(second, "s2", 0.0)
        cluster.run()
        contended = first.complete_time_us - first.launch_time_us
        assert contended > alone_duration
        assert device.peak_resident_tenants == 2
