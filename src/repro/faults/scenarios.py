"""Chaos scenarios: every backend driven through the same fault plan.

A chaos scenario is a program like any the fuzzer draws:
:func:`~repro.testing.generator.collective_program` builds it — one world
group, ``num_collectives`` all-reduce calls issued for ``iterations`` rounds,
the fault plan and the deadline — and
:func:`~repro.testing.differential.replay_program` drives it, so the chaos
runners, the chaos benchmarks and the fuzzer share one driver and one outcome
rule.  Each returns a :class:`~repro.testing.differential.ReplayResult`.
What survives differs by backend:

* the baseline's dedicated kernels block unboundedly on dead peers, so a rank
  crash turns into an engine-level deadlock whose wait-for cycle
  :func:`repro.deadlock.fault_scenarios.analyze_fault_deadlock` extracts
  (``result.analysis``);
* DFCCL's daemon kernels preempt instead of blocking, the recovery manager
  detects the crash via CQE timeout, shrinks the group, and the surviving
  ranks complete every remaining collective — with byte-identical reduction
  results, checked by :meth:`~repro.testing.differential.ReplayResult.fingerprints_consistent`
  over each work's :meth:`~repro.api.Work.completion_info` member set.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core import DfcclConfig
from repro.faults.plan import FaultPlan
from repro.testing.differential import replay_program
from repro.testing.generator import collective_program

#: Default virtual-time deadline: a run not finished by then is stuck.
DEFAULT_DEADLINE_US = 120_000.0


def _replay_chaos(program, backend, seed, **knobs):
    """Replay a chaos program; the result's records keep no sequences.

    Nothing compares a chaos run's primitive sequences, and each record's
    ``Schedule`` (its run-form loop bodies, one per rank and collective)
    would otherwise outlive the cluster with the result: on 128 ranks that
    shows in peak memory.
    """
    result = replay_program(program, backend, seed=seed, **knobs)
    for record in result.records:
        record.sequence = None
    return result


def run_dfccl_chaos(plan, topology="dual-3090-nvlink", world_size=16,
                    num_collectives=3, nbytes=1 << 20, iterations=2,
                    config=None, recovery=True, deadline_us=DEFAULT_DEADLINE_US,
                    seed=17):
    """Run the chaos workload through DFCCL (optionally without recovery)."""
    config = replace(config or DfcclConfig(), recovery_enabled=recovery)
    program = collective_program(
        topology, world_size, nbytes=nbytes, num_collectives=num_collectives,
        rounds=iterations, chunk_bytes=config.chunk_bytes,
        algorithm=config.algorithm, fault_plan=plan, deadline_us=deadline_us)
    return _replay_chaos(program, "dfccl", seed, config=config)


def run_nccl_chaos(plan, topology="dual-3090-nvlink", world_size=16,
                   num_collectives=3, nbytes=1 << 20, iterations=2,
                   deadline_us=DEFAULT_DEADLINE_US, seed=17):
    """Run the same workload through the dedicated-kernel baseline."""
    program = collective_program(
        topology, world_size, nbytes=nbytes, num_collectives=num_collectives,
        rounds=iterations, fault_plan=plan, deadline_us=deadline_us)
    return _replay_chaos(program, "nccl", seed)


# -- the headline comparison -----------------------------------------------------------


def chaos_rank_crash_comparison(topology="dual-3090-nvlink", world_size=16,
                                crash_rank=None, crash_at_us=120.0,
                                nbytes=1 << 20, num_collectives=2, iterations=2,
                                seed=17, deadline_us=DEFAULT_DEADLINE_US):
    """Rank crash mid-all-reduce: the baseline wedges, DFCCL shrinks and finishes.

    Returns ``{"plan", "nccl", "dfccl"}`` where the NCCL result carries the
    wait-for-cycle analysis and the DFCCL result carries recovery events
    (``diagnostics["recovery"]``) and per-rank reduction records.
    """
    victim = crash_rank if crash_rank is not None else world_size // 2
    plan = FaultPlan(name="rank-crash-mid-allreduce").add_crash(victim, crash_at_us)
    nccl = run_nccl_chaos(plan, topology, world_size, num_collectives, nbytes,
                          iterations, deadline_us=deadline_us, seed=seed)
    dfccl = run_dfccl_chaos(plan, topology, world_size, num_collectives, nbytes,
                            iterations, recovery=True,
                            deadline_us=deadline_us, seed=seed)
    return {"plan": plan.describe(), "nccl": nccl, "dfccl": dfccl}
