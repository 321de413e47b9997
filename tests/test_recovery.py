"""Elastic recovery, daemon generations and communicator-pool recycling."""

import pytest

from repro.api import make_backend
from repro.bench.fault_experiments import CHAOS_HORIZON_US, CHAOS_PLANS
from repro.common.errors import InvalidStateError
from repro.common.types import CollectiveKind, CollectiveSpec
from repro.core import CommunicatorPool, DfcclConfig
from repro.faults import FaultPlan, install_fault_plan
from repro.faults.scenarios import run_dfccl_chaos
from repro.gpusim import HostProgram, build_cluster
from repro.gpusim.host import DeviceSynchronize

pytestmark = pytest.mark.timeout(300)


def run_simple(config=None, num_gpus=2, coll_sizes=(1024, 1024), with_sync=False,
               orders=None, iterations=1):
    cluster = build_cluster("single-3090")
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


def _dfccl_group(ranks, config=None):
    """A fresh single-server cluster, its DFCCL backend and a group over ``ranks``."""
    cluster = build_cluster("single-3090")
    backend = make_backend("dfccl", cluster, config=config)
    return cluster, backend, backend.new_group(ranks)


class TestDaemonGenerationTurnover:
    def test_voluntary_quit_relaunches_with_new_generation(self):
        """Quit -> relaunch: the generation counter advances and work finishes."""
        _, backend, _ = run_simple(
            orders=lambda rank, _: [0, 1] if rank == 0 else [1, 0],
            with_sync=True,
        )
        context = backend.contexts[0]
        stats = backend.stats(0)
        assert stats.voluntary_quits >= 1
        assert stats.launches == stats.voluntary_quits + stats.final_exits
        assert context._daemon_generation == stats.launches
        assert stats.cqes_written == 2
        assert context.finally_exited

    def test_recovery_rebinds_survivors_without_relaunch(self):
        """Recovery rebinds the running daemons' entries in place: each
        survivor finishes the re-run on the daemon it had, with no relaunch."""
        plan = FaultPlan(name="crash").add_crash(2, at_us=80.0)
        result = run_dfccl_chaos(plan, topology="single-3090", world_size=4,
                                 num_collectives=1, nbytes=1 << 20, iterations=1)
        assert result.outcome == "completed"
        assert result.diagnostics["recovery"]["recoveries"] == 1
        for rank in result.survivor_ranks:
            stats = result.diagnostics["daemon_stats"][rank]
            assert stats.launches == stats.voluntary_quits + stats.final_exits
            assert (stats.launches, stats.voluntary_quits, stats.cqes_written) == (
                1, 0, 1)

    def test_pending_entries_survive_generations(self):
        """Collectives fetched by one generation complete under a later one."""
        _, backend, _ = run_simple(
            coll_sizes=(4096, 4096, 4096),
            orders=lambda rank, _: [0, 1, 2] if rank == 0 else [2, 1, 0],
            with_sync=True,
        )
        for rank in (0, 1):
            assert backend.stats(rank).cqes_written == 3


class TestCommunicatorPoolRecycling:
    def _pool(self):
        cluster = build_cluster("single-3090")
        return cluster, CommunicatorPool(cluster.interconnect)

    def test_keys_are_job_and_device_ids(self):
        cluster, pool = self._pool()
        devices = [cluster.device(0), cluster.device(1)]
        key = pool._key(devices)
        assert key == (None, tuple(device.device_id for device in devices))
        assert pool._key(devices, job="job-a") == (
            "job-a", tuple(device.device_id for device in devices)
        )

    def test_release_then_acquire_reuses(self):
        cluster, pool = self._pool()
        devices = [cluster.device(0), cluster.device(1)]
        comm = pool.acquire(devices)
        assert pool.release(comm) is True
        again = pool.acquire(devices)
        assert again is comm
        assert pool.stats()["reused"] == 1

    def test_invalidated_communicator_is_discarded(self):
        cluster, pool = self._pool()
        devices = [cluster.device(0), cluster.device(1)]
        comm = pool.acquire(devices)
        comm.invalidate()
        assert pool.release(comm) is False
        assert pool.acquire(devices) is not comm
        assert pool.stats()["discarded"] == 1

    def test_release_all_for_evicts_spanning_comms(self):
        cluster, pool = self._pool()
        doomed = cluster.device(1)
        comm_a = pool.acquire([cluster.device(0), doomed])
        comm_b = pool.acquire([cluster.device(2), cluster.device(3)])
        pool.release(comm_a)
        pool.release(comm_b)
        dropped = pool.release_all_for([doomed])
        assert dropped == 1
        assert pool.acquire([cluster.device(2), cluster.device(3)]) is comm_b
        assert pool.acquire([cluster.device(0), doomed]) is not comm_a

    def test_unregister_recycles_communicator(self):
        _, backend, group = _dfccl_group([0, 1])
        coll = group.all_reduce(0, count=256, key=0).run.coll
        comm = coll.communicator
        assert backend.unregister_all() == 1
        assert coll.coll_id not in backend.contexts[0].registered
        recycled = group.all_reduce(0, count=256, key=1).run.coll
        assert recycled.communicator is comm
        assert backend.pool.stats()["reused"] == 1

    def test_unregister_failure_invalidated_communicator_not_reused(self):
        _, backend, group = _dfccl_group([0, 1])
        coll = group.all_reduce(0, count=256, key=0).run.coll
        coll.communicator.invalidate()
        comm = coll.communicator
        assert backend.unregister_all() == 1
        fresh = group.all_reduce(0, count=256, key=1).run.coll
        assert fresh.communicator is not comm
        assert backend.pool.stats()["discarded"] == 1


class TestRecoveryMechanics:
    def test_crash_shrinks_group_and_replaces_communicator(self):
        plan = FaultPlan(name="crash").add_crash(1, at_us=80.0)
        result = run_dfccl_chaos(plan, topology="single-3090", world_size=3,
                                 num_collectives=1, nbytes=1 << 20, iterations=1)
        assert result.outcome == "completed"
        event = result.diagnostics["recovery"]["events"][0]
        assert event["failed_ranks"] == (1,)
        assert event["survivor_ranks"] == (0, 2)
        assert event["generation"] == 1
        assert event["detection_latency_us"] > 0

    def test_double_crash_shrinks_twice(self):
        # The second crash lands after the first recovery (at 1500 us) and
        # before the survivors finish.
        plan = (FaultPlan(name="double")
                .add_crash(1, at_us=80.0)
                .add_crash(3, at_us=2000.0))
        result = run_dfccl_chaos(plan, topology="single-3090", world_size=5,
                                 num_collectives=1, nbytes=1 << 20, iterations=3,
                                 deadline_us=60_000.0)
        assert result.outcome == "completed"
        events = result.diagnostics["recovery"]["events"]
        assert max(event["generation"] for event in events) == 2
        final_survivors = events[-1]["survivor_ranks"]
        assert final_survivors == (0, 2, 4)

    def test_straggler_timeout_is_not_treated_as_crash(self):
        config = DfcclConfig(crash_detect_timeout_us=50.0)
        plan = FaultPlan(name="slow").add_straggler(1, at_us=10.0, factor=8.0,
                                                    duration_us=1_000.0)
        result = run_dfccl_chaos(plan, topology="single-3090", world_size=4,
                                 num_collectives=1, nbytes=1 << 20, iterations=1,
                                 config=config)
        assert result.outcome == "completed"
        assert result.diagnostics["recovery"]["recoveries"] == 0
        assert result.diagnostics["recovery"]["suspected_stragglers"] >= 1

    def test_recovery_disabled_config_spawns_no_manager(self):
        cluster = build_cluster("single-3090")
        backend = make_backend("dfccl", cluster,
                               config=DfcclConfig(recovery_enabled=False))
        assert backend.recovery_manager is None

    def test_dead_root_broadcast_is_abandoned_not_rerooted(self):
        """A rooted collective whose root died cannot be re-formed."""
        cluster, backend, group = _dfccl_group([0, 1, 2])
        # Payload large enough that the root is still sending chunks when it
        # dies (a smaller broadcast can legitimately finish from the chunks
        # already persisted in the connectors).
        works = [group.broadcast(rank, count=1 << 21, root=1) for rank in group.ranks]
        cluster.add_hosts([HostProgram(work.ops()) for work in works])
        install_fault_plan(cluster,
                           FaultPlan(name="root-crash").add_crash(1, at_us=40.0))
        cluster.run(until_us=20_000.0)
        coll = works[0].run.coll
        manager = backend.recovery_manager
        assert coll.abandoned
        assert manager.stats.abandoned >= 1
        assert manager.stats.recoveries == 0
        # Survivors cannot have completed a broadcast without its root.
        invocation = coll.invocation(0)
        assert not invocation.is_done(0) and not invocation.is_done(2)

    def test_completed_root_with_dead_peer_abandons_instead_of_crashing(self):
        """Root finished sending, then a non-root peer dies: the rerun set
        excludes the root, whose sends cannot be replayed — the collective is
        abandoned without the recovery path blowing up the simulation."""
        cluster, backend, group = _dfccl_group([0, 1, 2, 3])
        invocation = group.broadcast(0, count=1 << 20, root=0).run
        coll = invocation.coll
        invocation.mark_complete(0, 10.0)   # root's part is done
        cluster.device(2).fail(20.0)
        manager = backend.recovery_manager
        manager._recover_collective(coll, [2], now=30.0)  # must not raise
        assert coll.abandoned
        assert manager.stats.abandoned == 1
        assert manager.stats.recoveries == 0
        # And the scan skips an abandoned collective instead of retrying.
        backend.contexts[1].inflight[invocation] = 0.0
        manager._scan(now=10_000.0)
        assert manager.stats.abandoned == 1

    def test_unregister_after_crash_recovery_succeeds(self):
        """Recovery leaves the collective unregisterable: dead-rank contexts
        are cleaned up unconditionally and the rebuilt communicator recycles."""
        cluster, backend, group = _dfccl_group([0, 1, 2])
        works = [group.all_reduce(rank, count=1 << 18) for rank in group.ranks]
        cluster.add_hosts([HostProgram(work.ops() + backend.finalize_ops(work.rank))
                           for work in works])
        install_fault_plan(cluster,
                           FaultPlan(name="crash").add_crash(1, at_us=30.0))
        cluster.run(until_us=60_000.0)
        coll = works[0].run.coll
        assert coll.invocation(0).fully_complete()
        # The dead rank does not object.
        assert backend.unregister_all() == 1
        assert backend.pool.stats()["free"] >= 1

    def test_unregister_with_inflight_invocation_raises(self):
        cluster, backend, group = _dfccl_group([0, 1])
        first, second = (group.all_reduce(rank, count=256) for rank in group.ranks)
        coll = first.run.coll
        # Rank 0 submits up front (its program only waits); rank 1 submits
        # from its program as usual.
        backend.contexts[0].submit_invocation(first.run, first.group_rank, 0.0)
        cluster.add_hosts([
            HostProgram([first.wait_op()] + backend.finalize_ops(0)),
            HostProgram(second.ops() + backend.finalize_ops(1)),
        ])
        with pytest.raises(InvalidStateError):
            backend.contexts[0].ensure_unregisterable(coll)
        assert backend.unregister_all() == 0
        # The refused unregister must leave the backend fully consistent:
        # the collective is still registered everywhere and the run works.
        assert coll in backend.collectives.values()
        assert coll.coll_id in backend.contexts[0].registered
        assert coll.coll_id in backend.contexts[1].registered
        cluster.run()
        assert backend.unregister_all() == 1
        assert backend.pool.stats()["free"] == 1


def _mixed_plan(world_size):
    """The seeded mixed fault plan of the ``chaos-128`` benchmark workload."""
    return FaultPlan.random(
        seed=1237, world_size=world_size, horizon_us=0.6 * CHAOS_HORIZON_US,
        expected_crashes=2.0, expected_stragglers=2.0, expected_flaps=2.0,
        expected_stalls=2.0, name="mixed", protect_ranks=(0,))


def _shrinks(world_size, *crashes):
    """Expected recovery events: each crash shrinks collectives 0-2 in turn."""
    events, excluded = [], set()
    for generation, rank in enumerate(crashes, start=1):
        excluded.add(rank)
        survivors = tuple(r for r in range(world_size) if r not in excluded)
        events.extend((coll_id, (rank,), survivors, generation)
                      for coll_id in range(3))
    return events


#: Recovery bookkeeping of the chaos workload on a 32-rank fat-tree:
#: (scans, suspected stragglers, recoveries, invocations rerun, events).
#: Scans, suspicions and reruns follow how soon the survivors finish.
RECOVERY_32 = {
    "crash": (CHAOS_PLANS["crash"], 31, 4, 3, 6, _shrinks(32, 16)),
    "double-crash": (CHAOS_PLANS["double-crash"], 33, 4, 6, 10,
                     _shrinks(32, 16, 31)),
    "link-flap": (CHAOS_PLANS["link-flap"], 63, 5, 0, 0, []),
    "mixed": (_mixed_plan, 29, 3, 3, 5, _shrinks(32, 23)),
}


class TestRecoveryExactness:
    """The recovery scan checks failures once per collective per scan; that
    must not change a single scan, straggler suspicion or shrink."""

    @pytest.mark.parametrize("name", sorted(RECOVERY_32))
    def test_recovery_stats_pinned(self, name):
        make_plan, scans, stragglers, recoveries, rerun, events = RECOVERY_32[name]
        result = run_dfccl_chaos(make_plan(32), topology="fat-tree-32",
                                 world_size=32)
        assert result.outcome == "completed"
        assert result.fingerprints_consistent()
        stats = result.diagnostics["recovery"]
        assert (stats["scans"], stats["suspected_stragglers"],
                stats["recoveries"], stats["invocations_rerun"]) == (
            scans, stragglers, recoveries, rerun)
        assert [(event["coll_id"], event["failed_ranks"],
                 event["survivor_ranks"], event["generation"])
                for event in stats["events"]] == events
