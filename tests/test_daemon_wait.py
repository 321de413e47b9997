"""Exact pins of the DFCCL daemon's spin, preempt and idle-poll behaviour.

The values were recorded with the per-quantum spin loop (one engine step per
spin quantum).  How the daemon waits is a simulator detail: every number
below is simulated behaviour and must not move when the waiting is
implemented differently.
"""

from repro.bench.training_experiments import (
    GPT2_CASES,
    TRAINING_CHUNK_BYTES,
    fig11_adaptive_scheduling,
)
from repro.core.daemon import DaemonKernel
from repro.faults import FaultPlan
from repro.faults.scenarios import run_dfccl_chaos
from repro.gpusim import build_cluster
from repro.workloads import GroupTrainingBackend, ParallelPlan, TrainingRun, gpt2_model

#: Fig. 13 ``3d-16gpu`` at 2 iterations, per rank: (preemptions, spin_polls,
#: spin_time_us, primitives_executed, context cache_hits summed over daemon
#: generations).  Ranks 0-7 form the first pipeline stage, 8-15 the second.
FIG13_STAGE0 = (3836, 68869000, 275476.0, 2106, 22250)
FIG13_STAGE1 = (557, 11319000, 45276.0, 2106, 3734)
FIG13_ITERATION_MS = 258.38070919743933

#: Fig. 11 throughput: the same under both spin policies.
FIG11_THROUGHPUT = 1581.7555481929473

#: Fig. 11 at its default arguments, every rank under both policies: each of
#: the nine collectives' three invocations completes without a context
#: switch.
FIG11_CONTEXT_SWITCHES = {(coll_id, index): 0
                          for coll_id in range(9) for index in range(3)}

#: The fault program: outcome, final virtual time, recovery events and per-rank
#: (preemptions, spin_polls, spin_time_us).
FAULT_TIME_US = 19578.59443720786
FAULT_RECOVERY_EVENTS = [
    {"time_us": 1500.0, "coll_id": coll_id, "failed_ranks": (5,),
     "survivor_ranks": (0, 1, 2, 3, 4, 6, 7), "detection_latency_us": 1350.0,
     "generation": 1}
    for coll_id in range(3)
]
FAULT_DAEMON_STATS = {
    0: (204, 3945500, 15782.0),
    1: (204, 3884000, 15536.0),
    2: (204, 3867500, 15470.0),
    3: (0, 131500, 526.0),
    4: (237, 3912500, 15650.0),
    5: (0, 7500, 30.0),
    6: (202, 3977500, 15910.0),
    7: (202, 3931500, 15726.0),
}


def test_fig13_3d_16gpu_spin_and_preemption_counts(monkeypatch):
    daemons = []
    launch = DaemonKernel.on_launch

    def record_launch(daemon, time_us):
        daemons.append(daemon)
        return launch(daemon, time_us)

    monkeypatch.setattr(DaemonKernel, "on_launch", record_launch)
    params = GPT2_CASES["3d-16gpu"]
    plan = ParallelPlan(gpt2_model(params["variant"]), tp=params["tp"],
                        dp=params["dp"], pp=params["pp"], microbatch_size=18,
                        num_microbatches=2, grad_buckets=8)
    cluster = build_cluster(params["topology"])
    backend = GroupTrainingBackend(cluster, "dfccl",
                                   chunk_bytes=TRAINING_CHUNK_BYTES)
    result = TrainingRun(cluster, plan, backend, iterations=2, warmup=1).run()

    cache_hits = {}
    for daemon in daemons:
        rank = daemon.ctx.global_rank
        cache_hits[rank] = (cache_hits.get(rank, 0)
                            + daemon.active_cache.stats.cache_hits)
    for rank in range(16):
        stats = backend.stats(rank)
        observed = (stats.preemptions, stats.spin_polls, stats.spin_time_us,
                    stats.primitives_executed, cache_hits[rank])
        assert observed == (FIG13_STAGE0 if rank < 8 else FIG13_STAGE1), rank
        # Every preemption is one invocation's context switch, counted
        # across the daemon generations that adopted it.
        assert (sum(stats.context_switches_per_invocation.values())
                == stats.preemptions), rank
    assert result.mean_iteration_time_ms == FIG13_ITERATION_MS


def test_fig11_preemptions_and_task_queue_peaks():
    results = fig11_adaptive_scheduling(num_gpus=4, iterations=3,
                                        grad_buckets=12)
    for policy in ("naive", "adaptive"):
        per_rank = results[policy]["per_rank"]
        observed = [
            (rank["total_preemptions"],
             max(length for _, length in rank["task_queue_lengths"]))
            for _, rank in sorted(per_rank.items())
        ]
        assert observed == [(0, 1)] * 4, policy
        assert results[policy]["throughput_samples_per_s"] == FIG11_THROUGHPUT


def test_fig11_context_switches_per_invocation():
    results = fig11_adaptive_scheduling()
    for policy in ("naive", "adaptive"):
        for rank, row in sorted(results[policy]["per_rank"].items()):
            assert row["context_switches"] == FIG11_CONTEXT_SWITCHES, (
                policy, rank)


def test_fault_program_with_straggler_stall_flap_and_crash():
    plan = (FaultPlan(name="daemon-wait-pin")
            .add_straggler(1, 40.0, factor=3.0, duration_us=400.0)
            .add_kernel_stall(2, 90.0, duration_us=120.0)
            .add_link_flap(3, 4, 60.0, duration_us=250.0)
            .add_crash(5, 150.0))
    result = run_dfccl_chaos(plan, topology="single-3090", world_size=8)

    assert result.outcome == "completed"
    assert result.time_us == FAULT_TIME_US
    assert result.diagnostics["recovery"]["events"] == FAULT_RECOVERY_EVENTS
    observed = {rank: (stats.preemptions, stats.spin_polls, stats.spin_time_us)
                for rank, stats in result.diagnostics["daemon_stats"].items()}
    assert observed == FAULT_DAEMON_STATS
