"""A finished cluster is freed by reference counting alone.

Every driver that builds a cluster and returns plain results closes it
(:meth:`repro.gpusim.cluster.Cluster.close`), so once its result is dropped
nothing of the run is left for the cyclic collector.  Each test runs a
driver with automatic collection off, drops the result and asserts that
``gc.collect()`` finds no unreachable object.  ``close`` keeps results: the
last tests read metrics, the deadlock report and stats after it.
"""

from __future__ import annotations

import gc

import pytest

from repro.api import make_backend
from repro.bench.deadlock_experiments import (
    sec61_random_order_program,
    sec61_sync_program,
)
from repro.bench.scale_experiments import run_scale_point
from repro.bench.training_experiments import fig13_gpt2_training
from repro.faults.scenarios import chaos_rank_crash_comparison
from repro.gpusim import HostProgram, build_cluster
from repro.testing import install_program
from repro.testing.differential import replay_program
from repro.testing.fuzz import program_at


def unreachable_after(driver):
    """Objects only the cyclic collector could free after ``driver()``'s
    result is dropped."""
    gc.collect()
    threshold = gc.get_threshold()
    # A zero threshold keeps automatic collection off even if the driver
    # re-enables the collector (run_scale_point does).
    gc.disable()
    gc.set_threshold(0)
    try:
        driver()
        return gc.collect()
    finally:
        gc.set_threshold(*threshold)
        gc.enable()


@pytest.mark.parametrize("backend", ["dfccl", "nccl", "mpi"])
@pytest.mark.parametrize("index", range(12))
def test_replay_program_leaves_no_cycle(backend, index):
    program = program_at(0, index)
    assert unreachable_after(lambda: replay_program(program, backend)) == 0


def test_chaos_comparison_leaves_no_cycle():
    """nccl deadlocks with a crashed rank's kernels resident and peers
    blocked; dfccl recovers."""
    assert unreachable_after(chaos_rank_crash_comparison) == 0


@pytest.mark.parametrize("backend,algorithm", [
    ("dfccl", "ring"), ("dfccl", "tree"), ("nccl", "hierarchical")])
def test_scale_point_leaves_no_cycle(backend, algorithm):
    assert unreachable_after(lambda: run_scale_point(
        32, topology="fat-tree", backend=backend, algorithm=algorithm)) == 0


def test_fig13_training_leaves_no_cycle():
    """The nccl-megatron and DFCCL runs of one figure, one after another."""
    assert unreachable_after(
        lambda: fig13_gpt2_training("3d-16gpu", iterations=2)) == 0


@pytest.mark.parametrize("driver", [sec61_random_order_program,
                                    sec61_sync_program])
@pytest.mark.parametrize("backend", ["dfccl", "nccl"])
def test_sec61_programs_leave_no_cycle(driver, backend):
    assert unreachable_after(lambda: driver(backend)) == 0


class TestClose:
    def test_results_survive_close(self):
        """Metric values, the deadlock report, stats and diagnostics read
        the same after ``close`` as before it."""
        program = program_at(0, 3)
        cluster, backend, works = install_program(program, "dfccl")
        cluster.run(until_us=program.deadline_us)
        diagnostics = backend.diagnostics()   # also records link metrics
        metrics = cluster.obs.metrics.snapshot()
        stats = {rank: backend.stats(rank) for rank in backend.contexts}
        cluster.close()
        cluster.close()   # idempotent
        assert cluster.obs.metrics.snapshot() == metrics
        assert {rank: backend.stats(rank) for rank in backend.contexts} == stats
        closed = backend.diagnostics()
        for key in ("pool", "daemon_stats", "recovery", "metrics"):
            assert closed[key] == diagnostics[key], key
        assert all(work.done for _, _, work in works)
        assert cluster.engine.actors() == []

    def test_deadlock_report_keeps_names_and_wait_graph(self):
        """Two ranks calling different collectives wedge the nccl kernels."""
        cluster = build_cluster("single-3090", deadlock_mode="record")
        group = make_backend("nccl", cluster).new_group([0, 1])
        cluster.add_hosts([HostProgram(group.all_reduce(rank, 256, key=rank).ops())
                           for rank in (0, 1)])
        cluster.run()
        report = cluster.engine.deadlock_report
        names, graph = report.involved(), dict(report.wait_graph)
        assert {"host-0", "host-1"} <= set(names)
        cluster.close()
        assert report.blocked_actors == []
        assert (report.involved(), report.wait_graph) == (names, graph)

    def test_engine_gauges_read_their_final_values(self):
        cluster = build_cluster("single-3090")
        make_backend("mpi", cluster)
        cluster.run()
        before = cluster.obs.metrics.snapshot()
        cluster.close()
        cluster.engine._steps += 1   # a frozen gauge no longer reads it
        assert cluster.obs.metrics.snapshot() == before
