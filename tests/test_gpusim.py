"""Tests for the GPU cluster substrate: engine, device, streams, hosts."""

import pytest

from repro.common.errors import ConfigurationError, DeadlockError
from repro.common.types import DeviceId, LinkType
from repro.gpusim import Engine, StepResult, build_cluster
from repro.gpusim.cluster import (
    Cluster,
    ClusterSpec,
    NodeSpec,
    dual_server_spec,
    mixed_32gpu_spec,
    single_server_spec,
)
from repro.gpusim.device import SleepKernel
from repro.gpusim.engine import Actor
from repro.gpusim.host import CpuCompute, DeviceSynchronize, HostProgram, LaunchKernel
from repro.gpusim.interconnect import Interconnect


class _CountdownActor(Actor):
    """Does N units of work, each costing 1 us."""

    def __init__(self, name, steps):
        super().__init__(name)
        self.remaining = steps

    def step(self):
        if self.remaining == 0:
            return StepResult.done()
        self.remaining -= 1
        self.clock.advance(1.0)
        return StepResult.progress()


class _WaiterActor(Actor):
    def __init__(self, name, key):
        super().__init__(name)
        self.key = key
        self.woken = False

    def step(self):
        if not self.woken:
            self.woken = True
            return StepResult.blocked([self.key])
        return StepResult.done()


class _SignallerActor(Actor):
    def __init__(self, name, key, at_time):
        super().__init__(name)
        self.key = key
        self.at_time = at_time
        self._fired = False

    def step(self):
        if not self._fired:
            self._fired = True
            self.clock.advance(self.at_time)
            self.engine.signal(self.key, self.clock.now)
            return StepResult.progress()
        return StepResult.done()


class TestEngine:
    def test_runs_actors_to_completion(self):
        engine = Engine()
        actor = engine.add_actor(_CountdownActor("worker", 5))
        engine.run()
        assert actor.finished
        assert actor.now == pytest.approx(5.0)

    def test_smallest_clock_scheduling(self):
        engine = Engine()
        engine.add_actor(_CountdownActor("slow", 3))
        engine.add_actor(_CountdownActor("fast", 3))
        engine.run()
        times = [entry[0] for entry in engine.obs.recorder.step_events()]
        assert times and times == sorted(times)

    def test_blocked_actor_wakes_on_signal(self):
        engine = Engine()
        waiter = engine.add_actor(_WaiterActor("waiter", "ready"))
        engine.add_actor(_SignallerActor("signaller", "ready", at_time=7.0))
        engine.run()
        assert waiter.finished
        assert waiter.now >= 7.0

    def test_deadlock_detected_when_no_signal_possible(self):
        engine = Engine()
        engine.add_actor(_WaiterActor("waiter-a", "never"))
        with pytest.raises(DeadlockError):
            engine.run()

    def test_deadlock_record_mode(self):
        engine = Engine(deadlock_mode="record")
        engine.add_actor(_WaiterActor("waiter-a", "never"))
        engine.run()
        assert engine.deadlock_report is not None
        assert "waiter-a" in engine.deadlock_report.involved()

    def test_daemon_actor_does_not_keep_engine_alive(self):
        engine = Engine()

        class _Idle(Actor):
            daemon = True

            def step(self):
                return StepResult.blocked(["never-signalled"])

        engine.add_actor(_Idle("service"))
        engine.add_actor(_CountdownActor("worker", 2))
        engine.run()  # must terminate despite the forever-blocked daemon

    def test_step_count_counts_actor_steps_only(self):
        engine = Engine()
        engine.add_actor(_CountdownActor("worker", 0))
        engine.run()
        assert engine.step_count == 1
        engine.run()  # nothing left to step
        assert engine.step_count == 1

    def test_each_engine_numbers_its_objects_from_zero(self):
        first, second = Engine(), Engine()
        assert [first.next_id("channel") for _ in range(3)] == [0, 1, 2]
        assert first.next_id("communicator") == 0
        assert second.next_id("channel") == 0

        actor = _CountdownActor("worker", 0)
        first.keep("thing", 5, actor)
        assert first.object_by_id("thing", 5) is actor
        assert second.object_by_id("thing", 5) is None
        del actor
        assert first.object_by_id("thing", 5) is None

    def test_sleeping_actor_preserves_causality(self):
        """A sleeper must not observe state written at a later virtual time."""
        engine = Engine()
        order = []

        class _Sleeper(Actor):
            def __init__(self):
                super().__init__("sleeper")
                self._slept = False

            def step(self):
                if not self._slept:
                    self._slept = True
                    return StepResult.sleep(5.0)
                order.append(("sleeper", self.now))
                return StepResult.done()

        class _Worker(Actor):
            def __init__(self):
                super().__init__("worker")
                self._count = 0

            def step(self):
                self._count += 1
                order.append(("worker", self.now))  # record the step START time
                self.clock.advance(4.0)
                if self._count == 3:
                    return StepResult.done()
                return StepResult.progress()

        engine.add_actor(_Sleeper())
        engine.add_actor(_Worker())
        engine.run()
        # No actor's step may *start* after the sleeper's wake time but be
        # scheduled before it: step-start times must be non-decreasing.
        times = [time for _, time in order]
        assert times == sorted(times)


class TestInterconnect:
    def test_pix_vs_sys_vs_rdma(self):
        interconnect = Interconnect()
        same_pix = interconnect.link(DeviceId(0, 0), DeviceId(0, 3))
        cross_pix = interconnect.link(DeviceId(0, 0), DeviceId(0, 5))
        cross_node = interconnect.link(DeviceId(0, 0), DeviceId(1, 0))
        assert same_pix.link_type is LinkType.SHM_PIX
        assert cross_pix.link_type is LinkType.SHM_SYS
        assert cross_node.link_type is LinkType.RDMA

    def test_loopback(self):
        interconnect = Interconnect()
        assert interconnect.link(DeviceId(0, 1), DeviceId(0, 1)).link_type is LinkType.LOOPBACK


class TestCluster:
    def test_single_server_has_eight_gpus(self):
        cluster = build_cluster("single-3090")
        assert cluster.world_size == 8

    def test_dual_and_mixed_topologies(self):
        assert build_cluster("dual-3090").world_size == 16
        assert build_cluster("mixed-32").world_size == 32

    def test_custom_spec(self):
        spec = ClusterSpec(nodes=[NodeSpec("tiny", num_gpus=2)])
        cluster = build_cluster(spec)
        assert cluster.world_size == 2

    @pytest.mark.parametrize("blocks", [0, -3])
    def test_non_positive_max_resident_blocks_rejected(self, blocks):
        """A GPU without block slots would fake a deadlock at the first
        launch, so the cluster refuses it."""
        with pytest.raises(ConfigurationError):
            build_cluster("single-3090", max_resident_blocks=blocks)
        with pytest.raises(ConfigurationError):
            Cluster(single_server_spec(), max_resident_blocks=blocks)

    def test_unknown_topology_rejected(self):
        with pytest.raises(Exception):
            build_cluster("not-a-topology")

    def test_dual_server_spec_names(self):
        spec = dual_server_spec()
        assert len(spec.nodes) == 2
        assert sum(node.num_gpus for node in mixed_32gpu_spec().nodes) == 32


class TestDeviceAndStreams:
    def test_sleep_kernel_runs_and_frees_blocks(self):
        cluster = build_cluster("single-3090")
        device = cluster.device(0)
        program = HostProgram([
            LaunchKernel(lambda host: SleepKernel("k0", host.device, 10.0, grid_size=2)),
        ])
        cluster.add_host(0, program)
        assert cluster.run() >= 10.0
        assert device.free_blocks == device.max_resident_blocks

    def test_same_stream_kernels_serialize(self):
        cluster = build_cluster("single-3090")
        completions = []

        def make(name, duration):
            def factory(host):
                kernel = SleepKernel(name, host.device, duration)
                original = kernel.complete

                def complete(detail="kernel complete"):
                    completions.append((name, kernel.now))
                    return original(detail)

                kernel.complete = complete
                return kernel
            return factory

        program = HostProgram([
            LaunchKernel(make("first", 50.0), stream="s"),
            LaunchKernel(make("second", 1.0), stream="s"),
        ])
        cluster.add_host(0, program)
        cluster.run()
        assert completions[0][0] == "first"
        assert completions[1][1] > completions[0][1]

    def test_device_synchronize_waits_for_kernels(self):
        cluster = build_cluster("single-3090")
        marks = {}
        program = HostProgram([
            LaunchKernel(lambda host: SleepKernel("k", host.device, 100.0)),
            DeviceSynchronize(),
            CpuCompute(1.0, "after-sync"),
        ])
        host = cluster.add_host(0, program)
        cluster.run()
        assert host.now >= 100.0

    def test_sync_blocks_later_launches(self):
        """A device sync holds the host's later ops until the kernels
        launched before it complete."""
        cluster = build_cluster("single-3090")
        host = cluster.add_host(0, HostProgram([
            LaunchKernel(lambda host: SleepKernel("long", host.device, 200.0), stream="a"),
            CpuCompute(1.0),
            DeviceSynchronize(),
        ]))
        cluster.run()
        assert host.now >= 200.0

    def test_cpu_compute_advances_host_clock(self):
        cluster = build_cluster("single-3090")
        host = cluster.add_host(0, HostProgram([CpuCompute(123.0)]))
        cluster.run()
        assert host.now >= 123.0


class TestHierarchicalTopology:
    def _hier(self, nvlink=2, oversub=2.0):
        from repro.gpusim.interconnect import TopologySpec
        return Interconnect(topology=TopologySpec(
            pix_group_size=4, nvlink_domain_size=nvlink,
            rdma_oversubscription=oversub))

    def test_nvlink_domain_link(self):
        interconnect = self._hier()
        link = interconnect.link(DeviceId(0, 0), DeviceId(0, 1))
        assert link.link_type is LinkType.NVLINK
        # Same PIX domain but different NVLink islands fall back to PIX.
        link = interconnect.link(DeviceId(0, 1), DeviceId(0, 2))
        assert link.link_type is LinkType.SHM_PIX

    def test_oversubscription_divides_rdma_bandwidth(self):
        interconnect = self._hier(oversub=2.0)
        link = interconnect.link(DeviceId(0, 0), DeviceId(1, 0))
        assert link.link_type is LinkType.RDMA
        assert link.beta_gbps == LinkType.RDMA.beta_gbps / 2.0
        assert link.alpha_us == LinkType.RDMA.alpha_us

    def test_flat_topology_unchanged(self):
        flat = Interconnect()
        assert flat.link(DeviceId(0, 0), DeviceId(0, 1)).link_type is LinkType.SHM_PIX
        assert flat.link(DeviceId(0, 0), DeviceId(1, 0)).beta_gbps == \
            LinkType.RDMA.beta_gbps

    def test_topology_spec_validation(self):
        from repro.gpusim.interconnect import TopologySpec
        with pytest.raises(Exception):
            TopologySpec(pix_group_size=0).validate()
        with pytest.raises(Exception):
            TopologySpec(rdma_oversubscription=0.5).validate()

    def test_named_hierarchical_clusters(self):
        nvlink_cluster = build_cluster("dual-3090-nvlink")
        assert nvlink_cluster.interconnect.link(
            DeviceId(0, 0), DeviceId(0, 1)).link_type is LinkType.NVLINK
        fat_tree = build_cluster("fat-tree-32")
        assert fat_tree.interconnect.link(
            DeviceId(0, 0), DeviceId(1, 0)).beta_gbps == \
            LinkType.RDMA.beta_gbps / 2.0


class TestEngineHorizonCache:
    def test_now_tracks_stepped_actors(self):
        class Ticker(Actor):
            def step(self):
                self.clock.advance(5.0)
                if self.now >= 10.0:
                    return StepResult.done()
                return StepResult.progress()

        engine = Engine()
        engine.add_actor(Ticker("a"))
        engine.add_actor(Ticker("b"))
        assert engine.now == 0.0
        engine.run()
        assert engine.now == pytest.approx(10.0)

    def test_now_tracks_late_registration(self):
        engine = Engine()

        class Idle(Actor):
            def step(self):
                return StepResult.done()

        late = Idle("late", start_time_us=42.0)
        engine.add_actor(late)
        assert engine.now == pytest.approx(42.0)


class _ForeverSleeper(Actor):
    """Sleeps in bounded hops forever (killed externally in tests)."""

    daemon = True

    def step(self):
        return StepResult.sleep(self.now + 50.0)


class TestEngineEventQueue:
    def test_killed_sleepers_are_compacted(self):
        """Satellite regression: cancelled/killed actors must not linger in
        the event queue — stale entries are invalidated in place and the heap
        is compacted once they outnumber the live ones."""
        engine = Engine()
        sleepers = [engine.add_actor(_ForeverSleeper(f"s{i}")) for i in range(500)]
        worker = engine.add_actor(_CountdownActor("worker", 3))
        for sleeper in sleepers:
            assert engine.kill_actor(sleeper)
        stats = engine.queue_stats()
        assert stats["compactions"] >= 1
        assert stats["stale"] <= max(64, stats["entries"] // 2)
        # Live entries are exactly the surviving worker.
        assert stats["live"] == 1
        engine.run()
        assert worker.finished

    def test_kill_actor_is_idempotent(self):
        engine = Engine()
        actor = engine.add_actor(_ForeverSleeper("s"))
        assert engine.kill_actor(actor) is True
        assert engine.kill_actor(actor) is False

    def test_reschedule_invalidates_old_entry(self):
        """An actor has at most one live queue entry at any time."""
        engine = Engine()
        engine.add_actor(_CountdownActor("worker", 5))
        engine.run()
        stats = engine.queue_stats()
        assert stats["live"] == 0
        assert stats["ready"] == 0

    def test_actors_registered_one_by_one_all_run(self):
        engine = Engine()
        actors = [engine.add_actor(_CountdownActor(f"w{i}", 2))
                  for i in range(40)]
        assert engine.queue_stats()["live"] == 40
        engine.run()
        assert all(actor.finished for actor in actors)

    def test_daemon_sleeper_does_not_block_finish(self):
        engine = Engine()
        engine.add_actor(_ForeverSleeper("poller"))
        worker = engine.add_actor(_CountdownActor("worker", 2))
        engine.run()  # must terminate with only the daemon sleeper left
        assert worker.finished


class TestTwoLevelFatTree:
    def test_cross_pod_pays_spine(self):
        from repro.gpusim.interconnect import SPINE_ALPHA_EXTRA_US, TopologySpec

        topology = TopologySpec(nodes_per_pod=2, rdma_oversubscription=2.0,
                                spine_oversubscription=2.0)
        interconnect = Interconnect(topology=topology)
        intra_pod = interconnect.link(DeviceId(0, 0), DeviceId(1, 0))
        cross_pod = interconnect.link(DeviceId(0, 0), DeviceId(2, 0))
        assert intra_pod.beta_gbps == pytest.approx(LinkType.RDMA.beta_gbps / 2.0)
        assert cross_pod.beta_gbps == pytest.approx(LinkType.RDMA.beta_gbps / 4.0)
        assert cross_pod.alpha_us == pytest.approx(
            LinkType.RDMA.alpha_us + SPINE_ALPHA_EXTRA_US)

    def test_single_level_unchanged(self):
        from repro.gpusim.interconnect import TopologySpec

        flat = Interconnect(topology=TopologySpec(rdma_oversubscription=2.0))
        link = flat.link(DeviceId(0, 0), DeviceId(5, 0))
        assert link.beta_gbps == pytest.approx(LinkType.RDMA.beta_gbps / 2.0)
        assert link.alpha_us == pytest.approx(LinkType.RDMA.alpha_us)

    def test_fat_tree_spec_scales(self):
        from repro.gpusim import fat_tree_spec

        spec = fat_tree_spec(512)
        assert sum(node.num_gpus for node in spec.nodes) == 512
        assert spec.topology.nodes_per_pod == 4
        assert spec.topology.spine_oversubscription == 2.0
        small = fat_tree_spec(32)
        # 4 nodes fit one pod: stays a single-level fabric.
        assert small.topology.nodes_per_pod == 0
        assert small.topology.spine_oversubscription == 1.0

    def test_named_fat_tree_topologies(self):
        cluster = build_cluster("fat-tree-64")
        assert cluster.world_size == 64
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            build_cluster("fat-tree-banana")

    def test_link_cache_tracks_degradations(self):
        interconnect = Interconnect()
        a, b = DeviceId(0, 0), DeviceId(1, 0)
        before = interconnect.link(a, b)
        assert interconnect.link(a, b) is before  # cached
        interconnect.degrade_link(a, b, beta_factor=4.0, alpha_add_us=7.0)
        degraded = interconnect.link(a, b)
        assert degraded.beta_gbps == pytest.approx(before.beta_gbps / 4.0)
        assert degraded.alpha_us == pytest.approx(before.alpha_us + 7.0)
        interconnect.restore_link(a, b, beta_factor=4.0, alpha_add_us=7.0)
        restored = interconnect.link(a, b)
        assert restored.beta_gbps == pytest.approx(before.beta_gbps)


class TestWaiterTableAlias:
    def test_waiters_by_key_is_the_live_waiter_table(self):
        """The executor fast path keys off this public alias; it must track
        blocks and signals exactly (the engine mutates in place, never
        rebinds)."""
        engine = Engine()
        waiter = engine.add_actor(_WaiterActor("w", "ding"))
        engine.add_actor(_SignallerActor("s", "ding", at_time=3.0))
        assert engine.waiters_by_key is engine._waiters
        engine.run()
        assert waiter.finished
        assert "ding" not in engine.waiters_by_key
        assert engine.waiters_by_key is engine._waiters


class TestWakeOrder:
    def test_one_signal_steps_its_waiters_in_block_order(self):
        """Actors blocked on one key wake, and step, in the order they
        blocked, whatever their memory addresses: the step order must not
        change with the hash seed."""
        import random

        waiters = [_WaiterActor(f"w{index}", "ding") for index in range(50)]
        random.Random(7).shuffle(waiters)
        engine = Engine()
        for waiter in waiters:  # each blocks at its first step, in turn
            engine.add_actor(waiter)
        engine.add_actor(_SignallerActor("s", "ding", at_time=3.0))
        engine.run()
        events = engine.obs.recorder.step_events()
        blocked = [name for _, name, status, _ in events if status == "blocked"]
        woken = [name for time_us, name, status, _ in events
                 if status == "done" and name != "s"]
        assert blocked == [waiter.name for waiter in waiters]
        assert woken == blocked
