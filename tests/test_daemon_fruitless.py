"""The daemon's fruitless-pass wait against the passes it stands for.

When a pass over the task queue preempts every entry, the daemon waits out
the passes that would fail the same way, up to the pass start that quits
(``DaemonKernel._wait_fruitless``).  Each case runs through the step-log
oracle (``test_step_log.assert_elisions_exact``): as is, and with every
retry of every timed wait stepped.  Both runs must agree on everything
simulated: the final time, the per-work results, every ``DaemonStats``
field but ``spin_waits`` and each daemon generation's ``ContextStats``; and
the elided step log must be the stepped one minus elidable daemon steps.
The waits change only how many engine steps a run takes.
"""

from collections import namedtuple
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.api import make_backend, wait_all
from repro.bench.training_experiments import TRAINING_CHUNK_BYTES
from repro.core import DfcclConfig
from repro.core.api import RankContext
from repro.core.daemon import DaemonKernel
from repro.faults import FaultPlan
from repro.faults.scenarios import run_dfccl_chaos
from repro.gpusim import build_cluster
from repro.gpusim.engine import Engine
from repro.gpusim.host import CallHook, CpuCompute, HostProgram
from repro.testing.fuzz import program_at
from repro.workloads import (
    GroupTrainingBackend,
    ParallelPlan,
    TrainingRun,
    resnet50_model,
)
from test_step_log import assert_elisions_exact, replayed


#: One fruitless-pass replay: the rank, the clock after it, the steps it
#: replayed and the step of the pass start that quits (``None`` when the
#: wait ended before its times were asked for), the collective at the queue
#: position it left (``None`` at a pass start) and the clock rate.
Replay = namedtuple("Replay", "rank now count deadline position rate")


def _in_fruitless_wait(actor):
    if not isinstance(actor, DaemonKernel) or actor._wait is None:
        return False
    return actor._wait.entry is None and actor._wait.plan is not None


@contextmanager
def observed(seen):
    """Record into ``seen`` each fruitless-pass :class:`Replay` and the
    kills and recovery rebinds that reached a fruitless wait."""
    seen.update(replays=[], settled=[])
    replay_passes = DaemonKernel._replay_passes
    kill_actor = Engine.kill_actor
    recover = RankContext.recover_invocation

    def record_replay(daemon, wait, count):
        replay_passes(daemon, wait, count)
        deadline = None if wait.times is None else len(wait.times) - 1
        position = None
        if not daemon._pass_needs_init:
            position = daemon.task_queue[daemon._queue_pos].coll_id
        seen["replays"].append(Replay(daemon.ctx.global_rank, daemon.now,
                                      count, deadline, position, wait.rate))

    def record_kill(engine, actor, time_us=None):
        if _in_fruitless_wait(actor):
            seen["settled"].append("kill")
        return kill_actor(engine, actor, time_us)

    def record_recover(ctx, invocation, time_us):
        if _in_fruitless_wait(ctx.current_daemon):
            seen["settled"].append("recover")
        return recover(ctx, invocation, time_us)

    with mock.patch.object(DaemonKernel, "_replay_passes", record_replay), \
            mock.patch.object(Engine, "kill_actor", record_kill), \
            mock.patch.object(RankContext, "recover_invocation",
                              record_recover):
        yield


def run_both(run):
    """Run ``run() -> (comparable result, daemon stats by rank)`` through the
    step-log oracle; returns what the elided run recorded."""
    seen = {}
    assert_elisions_exact(run, elided=observed(seen))
    return seen


def ended_early(seen, rank=None):
    """Fruitless-pass replays that a signal or settle ended before the
    pass start that quits."""
    return [replay for replay in seen["replays"]
            if (rank is None or replay.rank == rank)
            and (replay.deadline is None or replay.count < replay.deadline)]


# -- fuzzed programs and the paper's figures ----------------------------------


FUZZ_PROGRAMS = ([(0, index, 8, 0.15) for index in (0, 3, 9, 11, 12, 16,
                                                     17, 21, 23)]
                 + [(1, index, 8, 1.0) for index in range(8)]
                 + [(5, index, 32, 1.0) for index in range(3)])


@pytest.mark.parametrize("seed, index, max_ranks, fault_fraction",
                         FUZZ_PROGRAMS)
def test_fuzz_program_matches_stepping(seed, index, max_ranks,
                                       fault_fraction):
    program = program_at(seed, index, max_ranks=max_ranks,
                         fault_fraction=fault_fraction)
    run_both(replayed(program))


@pytest.mark.parametrize("config", [DfcclConfig(ordering="priority"),
                                    DfcclConfig(spin_policy="naive")],
                         ids=["priority", "naive"])
def test_fuzz_programs_match_stepping_under_both_policies(config):
    replays = 0
    for index in range(12):
        program = program_at(2, index, fault_fraction=0.5)
        seen = run_both(replayed(program, config=config))
        replays += len(seen["replays"])
    assert replays > 0


def test_fuzz_programs_plan_fruitless_passes():
    replays = []
    for seed, index, max_ranks, fault_fraction in FUZZ_PROGRAMS:
        program = program_at(seed, index, max_ranks=max_ranks,
                             fault_fraction=fault_fraction)
        seen = {}
        with observed(seen):
            replayed(program)()
        replays += seen["replays"]
    assert len(replays) > 20
    assert ended_early({"replays": replays})
    assert any(replay.count == replay.deadline for replay in replays)


@pytest.mark.parametrize("knobs", [{"spin_policy": "naive"},
                                   {"ordering": "priority"}],
                         ids=["naive", "priority"])
def test_fig11_matches_stepping(knobs):
    """Fig. 11's ResNet-50 data-parallel run (as in
    ``fig11_adaptive_scheduling``) under the naive spin policy and under
    priority ordering."""
    plan = ParallelPlan(resnet50_model(), tp=1, dp=4, pp=1,
                        microbatch_size=96, grad_buckets=12)

    def run():
        cluster = build_cluster("single-3090")
        backend = GroupTrainingBackend(cluster, make_backend(
            "dfccl", cluster,
            config=DfcclConfig(chunk_bytes=TRAINING_CHUNK_BYTES, **knobs)))
        result = TrainingRun(cluster, plan, backend, iterations=3,
                             warmup=1).run()
        stats = {rank: backend.stats(rank) for rank in range(4)}
        return result.throughput_samples_per_s, stats

    run_both(run)


# -- what ends a multi-pass wait ----------------------------------------------
#
# Rank 0 submits two broadcasts rooted at rank 1, ``A`` then ``B`` (and, with
# ``late_submit_us``, a third one ``C`` after that long); each starts with a
# receive, so until rank 1 joins, after computing for ``delay_us`` and with
# ``B`` first, every pass of rank 0's daemon preempts them all.  ``rank0``
# makes host ops from the cluster and backend, which rank 0 runs after its
# submits.


def broadcasts(delay_us, rank0=None, late_submit_us=None, until_us=None):
    keys = "AB" if late_submit_us is None else "ABC"

    def run():
        cluster = build_cluster("single-3090", deadlock_mode="record")
        backend = make_backend("dfccl", cluster)
        group = backend.new_group([0, 1])
        works = {rank: [group.broadcast(rank, 1 << 16, root=1, key=key)
                        for key in keys] for rank in (0, 1)}
        ops = {rank: [] for rank in (0, 1)}
        ops[0] += [work.submit_op() for work in works[0][:2]]
        if late_submit_us is not None:
            ops[0] += [CpuCompute(late_submit_us), works[0][2].submit_op()]
        if rank0 is not None:
            ops[0] += rank0(cluster, backend)
        ops[1] += [CpuCompute(delay_us)] + [
            works[1][index].submit_op() for index in (1, 0, 2)[:len(keys)]]
        for rank in (0, 1):
            ops[rank] += wait_all(works[rank]) + backend.finalize_ops(rank)
        cluster.add_hosts([HostProgram(ops[0]), HostProgram(ops[1])])
        end = cluster.run(until_us=until_us)
        outcome = (end, [(work.done, work.aborted,
                          work.run.complete_times.get(work.group_rank))
                         for rank in (0, 1) for work in works[rank]])
        stats = {rank: backend.stats(rank) for rank in (0, 1)}
        return outcome, stats
    return run


def actions(*steps):
    """Host ops: for each ``(delay_us, action)``, compute for ``delay_us``,
    then run ``action(cluster, backend, now)``."""
    def ops(cluster, backend):
        made = []
        for delay_us, action in steps:
            made += [CpuCompute(delay_us), CallHook(
                lambda host, action=action: action(cluster, backend,
                                                   host.now))]
        return made
    return ops


#: The collective id of ``A``, registered first.
COLL_A = 0
#: When rank 1 joins in the cases where rank 0 acts alone first.
LATE_US = 3000.0


def test_push_on_another_entrys_channel_ends_the_wait():
    """Rank 1 runs ``B`` first: its first push reaches rank 0 while rank 0's
    passes have reached ``A``."""
    positions = []
    for delay_us in (300.0, 500.0, 900.0, 1300.0, 1700.0):
        seen = run_both(broadcasts(delay_us))
        positions += [replay.position for replay in ended_early(seen, rank=0)]
    assert COLL_A in positions


def test_sqe_submit_ends_the_wait():
    early = []
    for late_submit_us in (150.0, 400.0, 800.0):
        seen = run_both(broadcasts(LATE_US, late_submit_us=late_submit_us))
        early += [replay for replay in ended_early(seen, rank=0)
                  if replay.now < LATE_US]
    assert early


def test_destroy_ends_the_wait():
    def destroy(cluster, backend, now):
        backend.contexts[0].destroy(now)

    early = []
    for delay_us in (150.0, 400.0):
        seen = run_both(broadcasts(
            LATE_US, rank0=actions((delay_us, destroy))))
        early += [replay for replay in ended_early(seen, rank=0)
                  if replay.now < LATE_US]
    assert early


def test_rate_change_settles_the_wait():
    def slow(cluster, backend, now):
        cluster.device(0).set_slowdown(2.0, now)

    def restore(cluster, backend, now):
        cluster.device(0).set_slowdown(1.0, now)

    rates = set()
    early = []
    for delay_us in (150.0, 400.0, 700.0):
        seen = run_both(broadcasts(
            LATE_US, rank0=actions((delay_us, slow), (900.0, restore))))
        rates |= {replay.rate for replay in seen["replays"]
                  if replay.rank == 0}
        early += [replay for replay in ended_early(seen, rank=0)
                  if replay.now < LATE_US]
    assert rates == {1.0, 2.0}
    assert early


def test_recovery_rebinding_settles_the_wait():
    plan = FaultPlan(name="fruitless-recovery").add_crash(5, 150.0)

    def run():
        result = run_dfccl_chaos(plan, topology="single-3090", world_size=8)
        return ((result.comparable_state(), result.time_us),
                result.diagnostics["daemon_stats"])

    seen = run_both(run)
    assert "recover" in seen["settled"]


def test_kill_settles_the_wait():
    def crash(cluster, backend, now):
        cluster.fail_rank(0, now)

    settled = []
    for delay_us in (150.0, 400.0, 700.0):
        seen = run_both(broadcasts(LATE_US,
                                       rank0=actions((delay_us, crash))))
        settled += seen["settled"]
    assert "kill" in settled


def test_abort_during_a_pass_refuses_the_plan():
    """An abort settles the wait; if it lands mid-pass, the pass ends
    stepping and must not plan over the aborted entry, which the next pass
    drops."""
    def abort(cluster, backend, now):
        context = backend.contexts[0]
        for invocation in context.registered[COLL_A].invocations:
            context.abort_invocation(invocation, now)

    for delay_us in (150.0, 230.0, 310.0, 390.0):
        run_both(broadcasts(LATE_US, rank0=actions((delay_us, abort))))


def test_run_stopping_at_until_us_settles_the_wait():
    early = []
    for until_us in (250.0, 380.0, 470.0, 555.0):
        seen = run_both(broadcasts(LATE_US, until_us=until_us))
        early += ended_early(seen, rank=0)
    assert early


def test_idle_wait_is_a_pass_wait():
    """Rank 0 computes for 300 us between two all-reduces, longer than a
    pass takes but shorter than the quit period: its idle daemon waits as a
    pass wait over an empty task queue until the second SQE ends it."""
    idle = []
    replay_passes = DaemonKernel._replay_passes

    def record_replay(daemon, wait, count):
        idle.append(not daemon.task_queue)
        return replay_passes(daemon, wait, count)

    def run():
        cluster = build_cluster("single-3090")
        backend = make_backend("dfccl", cluster)
        group = backend.new_group([0, 1])
        programs = []
        for rank in (0, 1):
            first, second = [group.all_reduce(rank, 1 << 16, key=key)
                             for key in "AB"]
            ops = [first.submit_op()] + wait_all([first])
            if rank == 0:
                ops.append(CpuCompute(300.0))
            ops += ([second.submit_op()] + wait_all([second])
                    + backend.finalize_ops(rank))
            programs.append((HostProgram(ops), (first, second)))
        cluster.add_hosts([program for program, _ in programs])
        end = cluster.run()
        outcome = (end, [(work.done, work.run.complete_times[work.group_rank])
                         for _, works in programs for work in works])
        stats = {rank: backend.stats(rank) for rank in (0, 1)}
        return outcome, stats

    with mock.patch.object(DaemonKernel, "_replay_passes", record_replay):
        run_both(run)
    assert any(idle)
