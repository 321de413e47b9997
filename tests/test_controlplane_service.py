"""The scheduler as a service: live submission, quotas, preemption,
migration, elasticity."""

import importlib
import json

import pytest

from repro.api import make_backend
from repro.common.errors import ConfigurationError, InvalidStateError
from repro.core.queues import Sqe
from repro.gpusim import HostProgram, build_cluster
from repro.gpusim.host import CpuCompute
from repro.multijob import (
    ClusterJobRunner,
    JobCheckpoint,
    JobSpec,
    JobState,
    collective_fingerprints,
    install_scheduler,
)

DEADLINE_US = 60_000_000.0


def _cluster(topology="single-3090", blocks=8):
    return build_cluster(topology, deadlock_mode="record",
                         max_resident_blocks=blocks)


def _service(cluster, specs, seed=3, **kwargs):
    runner = ClusterJobRunner(cluster, "dfccl", seed=seed, launch_jitter_us=0.0)
    kwargs.setdefault("preemption", True)
    return install_scheduler(cluster, runner, specs, policy="packed", **kwargs)


def _spec(job_id, dp=8, iterations=2, priority=0, arrival=0.0, tenant=None):
    return JobSpec(job_id=job_id, dp=dp, iterations=iterations,
                   priority=priority, arrival_time_us=arrival, tenant=tenant)


class TestLiveSubmission:
    def test_live_submit_lands_and_completes(self):
        cluster = _cluster()
        service = _service(cluster, [_spec("boot", dp=2)], tenants_per_gpu=1)
        service.schedule(
            5_000.0,
            lambda s, now: s.submit(_spec("live", dp=2, arrival=now)))
        total = cluster.run(until_us=DEADLINE_US)
        records = {record.job_id: record
                   for record in service.finalize(total)}
        assert set(records) == {"boot", "live"}
        assert records["live"].state is JobState.COMPLETED
        assert records["live"].spec.arrival_time_us >= 5_000.0
        assert records["live"].start_time_us >= 5_000.0

    def test_live_submit_validates_id_and_size(self):
        cluster = _cluster()
        service = _service(cluster, [_spec("only", dp=2, iterations=2)],
                           tenants_per_gpu=1)
        total = cluster.run(until_us=DEADLINE_US)
        service.finalize(total)
        with pytest.raises(ConfigurationError):
            service.submit(_spec("only", dp=2))  # duplicate id
        with pytest.raises(ConfigurationError):
            service.submit(_spec("huge", dp=16))  # exceeds the 8-GPU world

    def test_actions_run_in_time_then_schedule_order(self):
        cluster = _cluster()
        service = _service(cluster, [_spec("a", dp=2)], tenants_per_gpu=1)
        seen = []
        service.schedule(2_000.0, lambda s, now: seen.append("second"))
        service.schedule(1_000.0, lambda s, now: seen.append("first"))
        service.schedule(2_000.0, lambda s, now: seen.append("third"))
        cluster.run(until_us=DEADLINE_US)
        assert seen == ["first", "second", "third"]


class TestQuotas:
    def test_oversized_job_rejected_at_admission(self):
        cluster = _cluster()
        service = _service(
            cluster,
            [_spec("big", dp=8, tenant="capped"),
             _spec("ok", dp=2, tenant="free")],
            tenants_per_gpu=1, quotas={"capped": 4},
        )
        total = cluster.run(until_us=DEADLINE_US)
        records = {record.job_id: record
                   for record in service.finalize(total)}
        assert records["big"].state is JobState.REJECTED
        assert records["ok"].state is JobState.COMPLETED
        assert (records["big"].spec.arrival_time_us, "reject", "big") in [
            (time_us, event, job) for time_us, event, job in service.events
        ]
        summary = service.summary(total)
        assert summary["rejected"] == 1
        assert summary["never_placed"] == 0  # rejection is not starvation
        assert records["big"].slo_attained is None
        assert cluster.obs.metrics.counter("jobs_rejected").value == 1

    def test_quota_caps_concurrent_leases(self):
        cluster = _cluster()
        # Capacity allows both 8-rank jobs at tenants_per_gpu=2, but the
        # tenant's 8-GPU quota serialises them.
        service = _service(
            cluster,
            [_spec("first", dp=8, tenant="t"),
             _spec("second", dp=8, tenant="t", arrival=100.0)],
            tenants_per_gpu=2, quotas={"t": 8},
        )
        total = cluster.run(until_us=DEADLINE_US)
        records = {record.job_id: record
                   for record in service.finalize(total)}
        assert records["first"].state is JobState.COMPLETED
        assert records["second"].state is JobState.COMPLETED
        assert records["second"].start_time_us >= \
            records["first"].finish_time_us


class TestPreemption:
    def _preemption_run(self, **kwargs):
        cluster = _cluster(blocks=4)
        service = _service(
            cluster,
            [_spec("victim", dp=8, iterations=3, priority=0),
             _spec("urgent", dp=8, iterations=2, priority=5,
                   arrival=30_000.0)],
            tenants_per_gpu=1, **kwargs,
        )
        total = cluster.run(until_us=DEADLINE_US)
        records = {record.job_id: record
                   for record in service.finalize(total)}
        return cluster, service, records, total

    def test_high_priority_preempts_and_victim_resumes(self):
        cluster, service, records, total = self._preemption_run()
        victim, urgent = records["victim"], records["urgent"]
        # The urgent job did not wait for the victim's three iterations.
        assert urgent.start_time_us < victim.finish_time_us
        assert urgent.state is JobState.COMPLETED
        # The victim was checkpoint-evicted, requeued, resumed, completed.
        assert victim.preemptions == 1
        assert victim.epoch >= 1
        assert victim.state is JobState.COMPLETED
        assert victim.completed_iterations == 3
        checkpoint = victim.checkpoint
        assert checkpoint is not None
        assert checkpoint.job_id == "victim"
        assert checkpoint.reason == "preempted-by:urgent"
        assert 0 <= checkpoint.completed_iterations < 3
        assert isinstance(checkpoint.fingerprints, tuple)
        events = [event for _, event, job in service.events
                  if job == "victim"]
        assert "preempt:preempted-by:urgent" in events
        assert "resume" in events
        metrics = cluster.obs.metrics
        assert metrics.counter("jobs_preempted").value == 1
        assert metrics.counter("jobs_resumed").value == 1
        summary = service.summary(total)
        assert summary["preemptions"] == 1
        assert summary["preempted_jobs"] == 1
        assert summary["resumed_jobs"] == 1
        # Queueing delay is recorded once per job at *first* placement: the
        # victim's resume is service interruption, not queueing.
        histogram = metrics.histogram("jobs_queueing_delay_us")
        assert histogram.count == 2

    def test_preemption_disabled_runs_to_completion(self):
        _, _, records, _ = self._preemption_run(preemption=False)
        assert records["victim"].preemptions == 0
        assert records["urgent"].start_time_us >= \
            records["victim"].finish_time_us

    def test_preemption_budget_zero_blocks_eviction(self):
        _, _, records, _ = self._preemption_run(max_preemptions_per_job=0)
        assert records["victim"].preemptions == 0
        assert records["urgent"].start_time_us >= \
            records["victim"].finish_time_us

    def test_equal_priority_never_preempts(self):
        cluster = _cluster(blocks=4)
        service = _service(
            cluster,
            [_spec("first", dp=8, iterations=3, priority=2),
             _spec("peer", dp=8, iterations=2, priority=2,
                   arrival=30_000.0)],
            tenants_per_gpu=1,
        )
        total = cluster.run(until_us=DEADLINE_US)
        records = {record.job_id: record
                   for record in service.finalize(total)}
        assert records["first"].preemptions == 0
        assert records["peer"].start_time_us >= \
            records["first"].finish_time_us

    def test_no_eviction_when_job_still_cannot_fit(self):
        cluster = _cluster(blocks=4)
        # Evicting the only lower-priority candidate frees 4 of the 8 GPUs
        # the wanted job needs; the other 4 belong to an equal-priority job.
        # The simulation must conclude "does not fit" and evict nothing.
        service = _service(
            cluster,
            [_spec("candidate", dp=4, iterations=3, priority=0),
             _spec("protected", dp=4, iterations=3, priority=5),
             _spec("wanted", dp=8, iterations=2, priority=3,
                   arrival=30_000.0)],
            tenants_per_gpu=1,
        )
        total = cluster.run(until_us=DEADLINE_US)
        records = {record.job_id: record
                   for record in service.finalize(total)}
        assert records["candidate"].preemptions == 0
        assert records["protected"].preemptions == 0
        assert records["wanted"].state is JobState.COMPLETED
        assert records["wanted"].start_time_us >= max(
            records["candidate"].finish_time_us,
            records["protected"].finish_time_us,
        )

    def test_starvation_aging_lifts_queued_priority(self):
        cluster = _cluster(blocks=4)
        # Both queue behind the runner; the low-priority job arrives first.
        # With aging its effective priority overtakes the later high-priority
        # arrival, so it is placed first despite the lower spec priority.
        specs = [
            _spec("runner", dp=8, iterations=2, priority=0),
            _spec("patient", dp=8, iterations=2, priority=0,
                  arrival=10.0),
            _spec("pushy", dp=8, iterations=2, priority=1,
                  arrival=20_000.0),
        ]
        service = _service(cluster, specs, tenants_per_gpu=1,
                           preemption=False, starvation_boost_us=15_000.0)
        total = cluster.run(until_us=DEADLINE_US)
        records = {record.job_id: record
                   for record in service.finalize(total)}
        assert records["patient"].start_time_us < \
            records["pushy"].start_time_us

        cluster = _cluster(blocks=4)
        service = _service(cluster, specs, tenants_per_gpu=1,
                           preemption=False, starvation_boost_us=None)
        total = cluster.run(until_us=DEADLINE_US)
        records = {record.job_id: record
                   for record in service.finalize(total)}
        assert records["pushy"].start_time_us < \
            records["patient"].start_time_us

    def test_negative_starvation_boost_is_rejected(self):
        """A negative period would age a queued job's priority down."""
        with pytest.raises(ConfigurationError):
            _service(_cluster(), [_spec("a", dp=2)],
                     starvation_boost_us=-15_000.0)
        for off in (None, 0, 0.0):
            service = _service(_cluster(), [_spec("a", dp=2)],
                               starvation_boost_us=off)
            assert service.starvation_boost_us == off


class TestMigration:
    def test_migrate_moves_job_off_its_old_ranks(self):
        cluster = _cluster()
        service = _service(cluster, [_spec("solo", dp=2, iterations=3)],
                           tenants_per_gpu=1)
        captured = {}

        def do_migrate(s, now):
            captured["old"] = tuple(s.jobs["solo"].lease.ranks)
            s.migrate("solo", now)

        service.schedule(10_000.0, do_migrate)
        total = cluster.run(until_us=DEADLINE_US)
        records = {record.job_id: record
                   for record in service.finalize(total)}
        solo = records["solo"]
        assert solo.state is JobState.COMPLETED
        assert solo.preemptions == 1
        assert solo.completed_iterations == 3
        assert service.migrations == 1
        assert not set(captured["old"]) & set(solo.lease.ranks)
        assert solo.checkpoint.reason == "migrate"
        events = [event for _, event, job in service.events if job == "solo"]
        assert "preempt:migrate" in events
        assert "resume" in events
        assert cluster.obs.metrics.counter("jobs_migrated").value == 1

    def test_migrate_requires_running_job(self):
        cluster = _cluster()
        service = _service(cluster, [_spec("done", dp=2, iterations=2)],
                           tenants_per_gpu=1)
        total = cluster.run(until_us=DEADLINE_US)
        service.finalize(total)
        with pytest.raises(InvalidStateError):
            service.migrate("done")


class TestElasticGrowAndRejoin:
    def test_grow_cluster_places_queued_work_on_new_node(self):
        cluster = _cluster()
        service = _service(
            cluster,
            [_spec("head", dp=8, iterations=3),
             _spec("tail", dp=8, iterations=2, arrival=100.0)],
            tenants_per_gpu=1,
        )
        service.schedule(20_000.0,
                         lambda s, now: s.grow_cluster(time_us=now))
        total = cluster.run(until_us=DEADLINE_US)
        records = {record.job_id: record
                   for record in service.finalize(total)}
        assert cluster.world_size == 16
        assert service.grow_events == 1
        assert cluster.obs.metrics.counter("cluster_grow_events").value == 1
        # The queued job landed on the grown node while the first still ran.
        tail = records["tail"]
        assert tail.state is JobState.COMPLETED
        assert tail.start_time_us >= 20_000.0
        assert tail.start_time_us < records["head"].finish_time_us
        assert set(tail.lease.ranks) <= set(range(8, 16))
        assert any(event == "grow" for _, event, _ in service.events)

    def test_rejoin_after_leased_rank_failure(self):
        cluster = _cluster()
        service = _service(cluster, [_spec("r", dp=4, iterations=3)],
                           tenants_per_gpu=1)

        def fail(s, now):
            if not s.cluster.device(1).failed:
                s.cluster.fail_rank(1, now)

        service.schedule(10_000.0, fail)
        total = cluster.run(until_us=DEADLINE_US)
        records = {record.job_id: record
                   for record in service.finalize(total)}
        job = records["r"]
        # The job lost a rank but was evicted and re-formed at full size on
        # healthy devices — it completes, it is not degraded.
        assert job.state is JobState.COMPLETED
        assert job.preemptions == 1
        assert job.completed_iterations == 3
        assert 1 not in job.lease.ranks
        assert service.rejoins == 1
        assert job.checkpoint.reason == "rejoin"
        assert cluster.obs.metrics.counter("jobs_rejoined").value == 1
        events = [event for _, event, job_id in service.events
                  if job_id == "r"]
        assert "preempt:rejoin" in events

    def test_rejoin_disabled_degrades_instead(self):
        # Rejoin is a preemption: without it the job loses the rank for good.
        cluster = _cluster()
        service = _service(cluster, [_spec("r", dp=4, iterations=3)],
                           tenants_per_gpu=1, preemption=False)
        service.schedule(10_000.0,
                         lambda s, now: s.cluster.fail_rank(1, now))
        total = cluster.run(until_us=DEADLINE_US)
        records = {record.job_id: record
                   for record in service.finalize(total)}
        assert records["r"].state is JobState.DEGRADED
        assert service.rejoins == 0


class TestClusterElasticity:
    def test_add_node_appends_ranks_and_keeps_existing(self):
        cluster = _cluster()
        first = cluster.device(0)
        added = cluster.add_node(time_us=2_500.0)
        assert cluster.world_size == 16
        assert cluster.device(0) is first
        assert [cluster.rank_of(device) for device in added] == \
            list(range(8, 16))
        assert "grow" in cluster.spec.nodes[-1].name
        for device in added:
            assert device.clock.now >= 2_500.0

    def test_add_host_starts_at_given_virtual_time(self):
        cluster = _cluster()
        host = cluster.add_host(0, HostProgram([CpuCompute(100.0)]),
                                name="late", start_time_us=5_000.0)
        assert host.now == 5_000.0
        total = cluster.run()
        # The late host's work happened entirely after its start time.
        assert host.now >= 5_100.0
        assert total >= 5_100.0


class TestQueueingDelayHistogram:
    def test_first_placement_delay_recorded_per_job(self):
        cluster = _cluster()
        service = _service(
            cluster,
            [_spec("now", dp=8, iterations=2),
             _spec("later", dp=8, iterations=2, arrival=100.0)],
            tenants_per_gpu=1,
        )
        total = cluster.run(until_us=DEADLINE_US)
        service.finalize(total)
        histogram = cluster.obs.metrics.histogram("jobs_queueing_delay_us")
        assert histogram.count == 2
        assert histogram.min == 0.0  # "now" was placed on arrival
        assert histogram.max > 0.0   # "later" waited for the full cluster
        summary = service.summary(total)
        assert summary["mean_queueing_delay_us"] > 0.0


class TestCheckpointHelpers:
    def test_checkpoint_describe_is_json_safe(self):
        checkpoint = JobCheckpoint(job_id="j", epoch=1,
                                   completed_iterations=2,
                                   taken_at_us=5.0, reason="migrate",
                                   aborted_parts=3,
                                   fingerprints=(("ar", "all_reduce",
                                                  (0, 1), 2, 1),))
        data = json.loads(json.dumps(checkpoint.describe()))
        assert data["job_id"] == "j"
        assert data["completed_iterations"] == 2
        assert data["reason"] == "migrate"

    def test_fingerprints_empty_view(self):
        class Backend:
            collectives = {}

        assert collective_fingerprints(Backend(), "j") == ()


class TestRemovedShims:
    """One scheduler class and one installer: the control-plane fork is gone."""

    def test_controlplane_package_is_gone(self):
        import repro.multijob as multijob

        with pytest.raises(ImportError):
            importlib.import_module("repro.controlplane")
        for name in ("ControlPlane", "install_control_plane"):
            assert not hasattr(multijob, name), name

    def test_rejoin_keyword_is_gone(self):
        cluster = _cluster()
        with pytest.raises(TypeError):
            _service(cluster, [], rejoin=False)


class TestStaleSqeHandling:
    def test_unknown_coll_resolves_to_none(self):
        """A fetched SQE whose collective was unregistered (preempted job)
        resolves to ``None`` instead of raising; the daemon drops it."""
        cluster = _cluster()
        backend = make_backend("dfccl", cluster)
        ctx = backend.init_rank(0)
        sqe = Sqe(coll_id=4_242, invocation_id=0)
        assert ctx.invocation_for_sqe(sqe) is None

    def test_daemon_stats_expose_drop_counter(self):
        from repro.core.scheduling import DaemonStats

        assert DaemonStats().stale_sqes_dropped == 0
