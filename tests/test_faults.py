"""Unit and scenario tests for the fault-injection subsystem (repro.faults)."""

import pytest

from repro.common.errors import ConfigurationError, InvalidStateError
from repro.faults import FaultEvent, FaultPlan, install_fault_plan
from repro.faults.scenarios import (
    chaos_rank_crash_comparison,
    run_dfccl_chaos,
    run_nccl_chaos,
)
from repro.gpusim import HostProgram, build_cluster
from repro.gpusim.device import SleepKernel

pytestmark = pytest.mark.timeout(300)


class TestFaultPlan:
    def test_builders_and_schema(self):
        plan = (FaultPlan(name="demo")
                .add_crash(3, at_us=100.0)
                .add_straggler(1, at_us=50.0, factor=4.0, duration_us=200.0)
                .add_link_flap(0, 2, at_us=10.0)
                .add_kernel_stall(2, at_us=30.0, duration_us=25.0))
        described = plan.describe()
        assert described["name"] == "demo"
        assert [event["kind"] for event in described["events"]] == [
            "rank_crash", "gpu_slowdown", "link_flap", "kernel_stall",
        ]
        assert described["events"][0]["rank"] == 3
        assert described["events"][2]["link"] == (0, 2)

    def test_timeline_expands_transients_in_time_order(self):
        plan = (FaultPlan()
                .add_straggler(0, at_us=100.0, duration_us=50.0)
                .add_crash(1, at_us=120.0))
        actions = [(action.time_us, action.action) for action in plan.timeline()]
        assert actions == [(100.0, "slowdown"), (120.0, "crash"),
                           (150.0, "restore_speed")]

    def test_validation_rejects_bad_events(self):
        with pytest.raises(ConfigurationError):
            FaultEvent("rank_crash", -1.0, rank=0).validate()
        with pytest.raises(ConfigurationError):
            FaultEvent("rank_crash", 0.0).validate()
        with pytest.raises(ConfigurationError):
            FaultEvent("link_degrade", 0.0, link=(1, 1)).validate()
        with pytest.raises(ConfigurationError):
            FaultEvent("gpu_slowdown", 0.0, rank=0, factor=0.5).validate()
        with pytest.raises(ConfigurationError):
            FaultEvent("kernel_stall", 0.0, rank=0).validate()
        with pytest.raises(ConfigurationError):
            FaultEvent("meteor_strike", 0.0, rank=0).validate()

    def test_validation_rejects_negative_latency_add(self):
        """A degradation may only add latency, as it may only divide
        bandwidth."""
        with pytest.raises(ConfigurationError):
            FaultEvent("link_degrade", 0.0, link=(0, 1), factor=2.0,
                       alpha_add_us=-5.0, duration_us=10.0).validate()

    def test_validation_rejects_negative_link_ranks(self):
        """A negative link rank would index the cluster from its end."""
        with pytest.raises(ConfigurationError):
            FaultEvent("link_degrade", 0.0, link=(-1, 3), factor=2.0,
                       duration_us=10.0).validate()

    def test_install_rejects_ranks_outside_the_cluster(self):
        cluster = build_cluster("single-3090")
        for plan in (FaultPlan(name="t").add_crash(99, 5.0),
                     FaultPlan(name="t").add_straggler(8, 5.0),
                     FaultPlan(name="t").add_link_flap(0, 8, 5.0)):
            with pytest.raises(ConfigurationError):
                install_fault_plan(cluster, plan)
        install_fault_plan(cluster, FaultPlan(name="t").add_link_flap(0, 7, 5.0))

    def test_random_plans_are_seed_deterministic(self):
        kwargs = dict(world_size=8, horizon_us=5000.0, expected_crashes=2.0)
        plan_a = FaultPlan.random(42, **kwargs)
        plan_b = FaultPlan.random(42, **kwargs)
        plan_c = FaultPlan.random(43, **kwargs)
        assert plan_a.describe() == plan_b.describe()
        assert plan_a.describe() != plan_c.describe()

    def test_random_plan_protects_ranks(self):
        for seed in range(8):
            plan = FaultPlan.random(seed, world_size=4, horizon_us=1000.0,
                                    expected_crashes=3.0, protect_ranks=(0,))
            assert 0 not in plan.crash_ranks()

    def test_shifted_delays_every_event(self):
        plan = FaultPlan().add_crash(0, at_us=10.0).add_kernel_stall(
            1, at_us=20.0, duration_us=5.0)
        shifted = plan.shifted(100.0)
        assert [event.time_us for event in shifted.events] == [110.0, 120.0]


class TestGpusimFaultHooks:
    def test_device_fail_kills_resident_kernels(self):
        cluster = build_cluster("single-3090")
        device = cluster.device(0)
        kernel = SleepKernel("victim", device, duration_us=10_000.0)
        device.enqueue_kernel(kernel, time_us=0.0)
        cluster.engine.run(until_us=50.0)
        assert kernel.launched and not kernel.completed
        killed = device.fail(60.0)
        assert kernel in killed
        assert kernel.finished and device.failed
        with pytest.raises(InvalidStateError):
            device.enqueue_kernel(SleepKernel("late", device, 1.0))

    def test_slowdown_dilates_kernel_time(self):
        def run_with(factor):
            cluster = build_cluster("single-3090")
            device = cluster.device(0)
            if factor != 1.0:
                device.set_slowdown(factor)
            kernel = SleepKernel("work", device, duration_us=100.0)
            device.enqueue_kernel(kernel, time_us=0.0)
            cluster.engine.run()
            return kernel.complete_time_us - kernel.launch_time_us

        assert run_with(4.0) == pytest.approx(4.0 * run_with(1.0))

    def test_link_degradation_and_restore(self):
        cluster = build_cluster("single-3090")
        inter = cluster.interconnect
        a, b = cluster.device(0).device_id, cluster.device(1).device_id
        baseline = inter.link(a, b).transfer_time_us(1 << 20)
        inter.degrade_link(a, b, beta_factor=10.0, alpha_add_us=50.0)
        degraded = inter.link(a, b).transfer_time_us(1 << 20)
        assert degraded > 5 * baseline
        inter.restore_link(a, b, beta_factor=10.0, alpha_add_us=50.0)
        assert inter.link(a, b).transfer_time_us(1 << 20) == pytest.approx(baseline)

    def test_degrade_link_rejects_negative_latency_add(self):
        cluster = build_cluster("single-3090")
        inter = cluster.interconnect
        a, b = cluster.device(0).device_id, cluster.device(1).device_id
        baseline = inter.link(a, b)
        for beta_factor in (2.0, 1.0):
            with pytest.raises(ConfigurationError):
                inter.degrade_link(a, b, beta_factor=beta_factor,
                                   alpha_add_us=-1.0)
        assert inter.link(a, b) == baseline

    def test_restore_removes_exactly_its_own_entry(self):
        cluster = build_cluster("single-3090")
        inter = cluster.interconnect
        a, b = cluster.device(0).device_id, cluster.device(1).device_id
        baseline = inter.link(a, b)
        with pytest.raises(ConfigurationError):
            inter.restore_link(a, b)
        inter.degrade_link(a, b, beta_factor=4.0, alpha_add_us=2.0)
        # Values that were never applied name no entry: nothing is removed.
        with pytest.raises(ConfigurationError):
            inter.restore_link(a, b, beta_factor=4.0)
        assert inter.link(a, b).beta_gbps == pytest.approx(baseline.beta_gbps / 4.0)
        inter.restore_link(b, a, beta_factor=4.0, alpha_add_us=2.0)
        assert inter.link(a, b) == baseline
        with pytest.raises(ConfigurationError):
            inter.restore_link(a, b, beta_factor=4.0, alpha_add_us=2.0)

    def test_overlapping_link_degradations_stack(self):
        cluster = build_cluster("single-3090")
        inter = cluster.interconnect
        a, b = cluster.device(0).device_id, cluster.device(1).device_id
        baseline = inter.link(a, b)
        inter.degrade_link(a, b, beta_factor=10.0, alpha_add_us=5.0)
        inter.degrade_link(a, b, beta_factor=4.0, alpha_add_us=2.0)
        worst = inter.link(a, b)
        assert worst.beta_gbps == pytest.approx(baseline.beta_gbps / 10.0)
        assert worst.alpha_us == pytest.approx(baseline.alpha_us + 7.0)
        # The first fault ending must not cancel the second, still-active one.
        inter.restore_link(a, b, beta_factor=10.0, alpha_add_us=5.0)
        remaining = inter.link(a, b)
        assert remaining.beta_gbps == pytest.approx(baseline.beta_gbps / 4.0)
        inter.restore_link(a, b, beta_factor=4.0, alpha_add_us=2.0)
        assert inter.link(a, b).beta_gbps == pytest.approx(baseline.beta_gbps)

    def test_overlapping_stragglers_keep_worst_factor(self):
        from repro.faults.plan import AtomicAction

        cluster = build_cluster("single-3090")
        device = cluster.device(1)
        slow_a = FaultEvent("gpu_slowdown", 0.0, rank=1, factor=4.0,
                            duration_us=100.0)
        slow_b = FaultEvent("gpu_slowdown", 0.0, rank=1, factor=2.0,
                            duration_us=300.0)
        injector = FaultPlan(name="overlap")
        injector = install_fault_plan(cluster, injector)
        injector._apply(AtomicAction(0.0, "slowdown", slow_a))
        injector._apply(AtomicAction(50.0, "slowdown", slow_b))
        assert device.slowdown_factor == 4.0
        injector._apply(AtomicAction(100.0, "restore_speed", slow_a))
        assert device.slowdown_factor == 2.0  # b is still active
        injector._apply(AtomicAction(300.0, "restore_speed", slow_b))
        assert device.slowdown_factor == 1.0

    def test_injector_replays_plan_into_cluster(self):
        cluster = build_cluster("single-3090")
        kernel = SleepKernel("long", cluster.device(3), duration_us=5_000.0)
        cluster.device(3).enqueue_kernel(kernel, time_us=0.0)
        # A longer-lived worker elsewhere keeps the engine running past the
        # straggler's restore event.
        cluster.device(0).enqueue_kernel(
            SleepKernel("bystander", cluster.device(0), duration_us=1_000.0),
            time_us=0.0,
        )
        plan = (FaultPlan(name="inject")
                .add_straggler(1, at_us=100.0, factor=2.0, duration_us=300.0)
                .add_crash(3, at_us=200.0))
        injector = install_fault_plan(cluster, plan)
        cluster.engine.run()
        assert [action for _, action, _ in injector.applied] == [
            "slowdown", "crash", "restore_speed"]
        assert cluster.device(3).failed
        assert cluster.device(1).slowdown_factor == 1.0  # restored


class TestChaosScenarios:
    def test_nccl_crash_deadlocks_with_crash_anchored_cycle(self):
        plan = FaultPlan(name="crash").add_crash(2, at_us=80.0)
        result = run_nccl_chaos(plan, topology="single-3090", world_size=4,
                                num_collectives=1, nbytes=1 << 20, iterations=1)
        assert result.outcome == "deadlock"
        assert result.time_us == 145.93085506493506
        assert result.analysis.fault_induced
        assert ("crashed", 2) in result.analysis.cycle

    def test_nccl_kernel_reports_waiting_on_dead_peer(self):
        from repro.api import make_backend
        from repro.deadlock import analyze_fault_deadlock

        cluster = build_cluster("single-3090", deadlock_mode="record")
        group = make_backend("nccl", cluster).new_group([0, 1, 2])
        works = [group.all_reduce(rank, count=1 << 18) for rank in group.ranks]
        cluster.add_hosts([HostProgram(work.ops()) for work in works])
        install_fault_plan(cluster, FaultPlan(name="crash").add_crash(1, at_us=30.0))
        cluster.run()
        report = cluster.engine.deadlock_report
        assert report is not None
        # A surviving kernel is blocked on the dead peer's channel: the
        # recorded wait-for graph has the survivor waiting on rank 1.
        analysis = analyze_fault_deadlock(report, cluster)
        assert ("rank", 1) in analysis.edges[("rank", 2)]
        assert ("crashed", 1) in analysis.cycle

    def test_dfccl_without_recovery_is_stuck_but_not_deadlocked(self):
        plan = FaultPlan(name="crash").add_crash(2, at_us=80.0)
        result = run_dfccl_chaos(plan, topology="single-3090", world_size=4,
                                 num_collectives=1, nbytes=1 << 20, iterations=1,
                                 recovery=False, deadline_us=20_000.0)
        # Preemption keeps the engine live (no deadlock report), but without
        # the recovery layer the survivors can never finish.
        assert result.outcome == "stuck"
        assert not any(record.done for record in result.records
                       if record.rank in result.survivor_ranks)

    def test_dfccl_with_recovery_completes_after_crash(self):
        plan = FaultPlan(name="crash").add_crash(2, at_us=80.0)
        result = run_dfccl_chaos(plan, topology="single-3090", world_size=4,
                                 num_collectives=2, nbytes=512 << 10, iterations=2)
        assert result.outcome == "completed"
        assert result.diagnostics["recovery"]["recoveries"] >= 1
        event = result.diagnostics["recovery"]["events"][0]
        assert event["failed_ranks"] == (2,)
        assert event["survivor_ranks"] == (0, 1, 3)

    def test_link_flap_degrades_but_completes_on_both_backends(self):
        plan = FaultPlan(name="flap").add_link_flap(0, 1, at_us=20.0,
                                                    duration_us=400.0)
        healthy = run_dfccl_chaos(FaultPlan(name="ok"), topology="single-3090",
                                  world_size=4, num_collectives=1,
                                  nbytes=1 << 20, iterations=1)
        flapped = run_dfccl_chaos(plan, topology="single-3090", world_size=4,
                                  num_collectives=1, nbytes=1 << 20, iterations=1)
        assert healthy.outcome == flapped.outcome == "completed"
        assert flapped.time_us > healthy.time_us
        baseline = run_nccl_chaos(plan, topology="single-3090", world_size=4,
                                  num_collectives=1, nbytes=1 << 20, iterations=1)
        assert baseline.outcome == "completed"

    def test_rank_crash_mid_allreduce_acceptance_scenario(self):
        """The ISSUE acceptance criterion on dual-3090-nvlink."""
        result = chaos_rank_crash_comparison()
        nccl, dfccl = result["nccl"], result["dfccl"]
        assert nccl.outcome == "deadlock"
        assert nccl.analysis.fault_induced  # wait-for cycle through dead rank
        assert dfccl.outcome == "completed"
        assert dfccl.diagnostics["recovery"]["recoveries"] >= 1
        # Byte-identical reductions on every surviving rank, per invocation
        # (the default crash time lands mid-first-all-reduce, so every
        # survivor re-runs; the generation-aware check is the general form).
        assert dfccl.fingerprints_consistent()
        survivor_values = {}
        for record in dfccl.records:
            if record.done and record.rank in dfccl.survivor_ranks:
                survivor_values.setdefault(record.logical(), set()).add(
                    (record.signature, record.reduced))
        assert survivor_values
        assert all(len(values) == 1 for values in survivor_values.values())
        # Exact results: a change to the streams the chaos workload launches
        # on, or to its host and group names, moves the NCCL deadlock time
        # or its blocked actors.
        assert nccl.time_us == 280.0624000000001
        assert nccl.analysis.cycle == [("crashed", 8), ("rank", 8)]
        survivors = [rank for rank in range(16) if rank != 8]
        assert nccl.analysis.blocked_actors == (
            [f"host-{rank}" for rank in survivors]
            + [f"pg0:all_reduce:0#0-r{rank}" for rank in survivors])
        assert dfccl.time_us == 3520.9509257142786
        assert dfccl.diagnostics["recovery"]["events"] == [
            {"time_us": 1500.0, "coll_id": coll_id, "failed_ranks": (8,),
             "survivor_ranks": tuple(survivors),
             "detection_latency_us": 1380.0, "generation": 1}
            for coll_id in (0, 1)
        ]
