"""Chaos scenarios: every backend driven through the same fault plan.

One runner, :func:`run_chaos`, builds a fresh cluster, obtains the requested
backend from the ``repro.api`` registry, installs a :class:`FaultInjector`
for the given plan and drives the same ProcessGroup workload — there is no
per-backend program construction left.  What survives differs by backend:

* the baseline's dedicated kernels block unboundedly on dead peers, so a rank
  crash turns into an engine-level deadlock whose wait-for cycle
  :func:`repro.deadlock.fault_scenarios.analyze_fault_deadlock` extracts;
* DFCCL's daemon kernels preempt instead of blocking, the recovery manager
  detects the crash via CQE timeout, shrinks the group, and the surviving
  ranks complete every remaining collective — with byte-identical reduction
  results, checked through per-rank reduction fingerprints recomputed from
  each work's :meth:`~repro.api.Work.completion_info` member set.

:func:`run_dfccl_chaos` and :func:`run_nccl_chaos` remain as thin
parameterizations of :func:`run_chaos`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.api import make_backend, wait_all
from repro.common.rng import DeterministicRNG
from repro.core import DfcclConfig
from repro.common.types import CollectiveKind, CollectiveSpec
from repro.deadlock.fault_scenarios import analyze_fault_deadlock
from repro.faults.injector import install_fault_plan
from repro.faults.plan import FaultPlan
from repro.gpusim import HostProgram, build_cluster

#: Default virtual-time deadline: a run not finished by then is stuck.
DEFAULT_DEADLINE_US = 120_000.0


@dataclass
class ChaosResult:
    """Outcome of one backend run under one fault plan."""

    backend: str
    plan: dict
    outcome: str                      # "completed" | "stuck" | "deadlock"
    time_us: float = 0.0
    crashed_ranks: tuple = ()
    survivor_ranks: tuple = ()
    expected_per_survivor: int = 0
    completions: dict = field(default_factory=dict)   # rank -> [records]
    recovery: dict = field(default_factory=dict)
    analysis: object = None
    injected: list = field(default_factory=list)

    @property
    def deadlocked(self):
        return self.outcome == "deadlock"

    def min_survivor_completions(self):
        if not self.survivor_ranks:
            return 0
        return min(len(self.completions.get(rank, ()))
                   for rank in self.survivor_ranks)

    def reduction_fingerprints(self):
        """Per-invocation reduction results, grouped across survivors.

        Returns ``{(coll_id, index): {rank: (signature, reduced_sum)}}``.
        Ranks sharing a signature (same recovery generation and participant
        set) must hold byte-identical sums; a survivor whose part completed
        *before* a crash legitimately keeps the pre-crash full-group result,
        which the signature's generation field makes distinguishable.
        """
        grouped = {}
        for rank, records in self.completions.items():
            for record in records:
                key = (record["coll_id"], record["index"])
                grouped.setdefault(key, {})[rank] = (
                    record["signature"], record["reduced"]
                )
        return grouped

    def fingerprints_consistent(self):
        """True when every rank pair sharing a signature agrees on the sum."""
        for per_rank in self.reduction_fingerprints().values():
            by_signature = {}
            for signature, reduced in per_rank.values():
                by_signature.setdefault(signature, set()).add(reduced)
            if any(len(values) > 1 for values in by_signature.values()):
                return False
        return True


def contribution_values(ranks, seed):
    """Deterministic per-rank integer contributions to the reductions."""
    rng = DeterministicRNG(seed)
    return {rank: rng.child("contribution", rank).randint(1, 1 << 20)
            for rank in ranks}


def _survivors(ranks, plan):
    crashed = set(plan.crash_ranks())
    return tuple(rank for rank in ranks if rank not in crashed)


# -- the backend-agnostic runner -------------------------------------------------------


def run_chaos(backend, plan, topology="dual-3090-nvlink", world_size=16,
              num_collectives=3, nbytes=1 << 20, iterations=2,
              deadline_us=DEFAULT_DEADLINE_US, seed=17, label=None, **knobs):
    """Run the shared all-reduce chaos workload through any registered backend.

    ``knobs`` go to :func:`repro.api.make_backend` (e.g. ``config=`` for
    DFCCL recovery settings).  Each completed work's reduction is recomputed
    from the member set its rank *actually* communicated over
    (:meth:`~repro.api.Work.completion_info`), so the result records double
    as byte-identical-reduction checks on every backend.
    """
    cluster = build_cluster(topology, deadlock_mode="record")
    if world_size > cluster.world_size:
        raise ValueError(f"topology {topology} has only {cluster.world_size} GPUs")
    ranks = list(range(world_size))
    api_backend = make_backend(backend, cluster, **knobs)
    group = api_backend.new_group(ranks)
    count = max(1, nbytes // 4)
    spec = CollectiveSpec(CollectiveKind.ALL_REDUCE, count)
    # Declare in key order so backend-side id assignment stays deterministic.
    for coll_id in range(num_collectives):
        group.ensure_collective(spec, key=coll_id)

    injector = install_fault_plan(cluster, plan)
    contributions = contribution_values(ranks, seed)

    works_by_rank = {rank: [] for rank in ranks}
    programs = []
    for rank in ranks:
        ops = []
        for _ in range(iterations):
            works = [group.all_reduce(rank, count, key=coll_id)
                     for coll_id in range(num_collectives)]
            works_by_rank[rank].extend(works)
            ops.extend(work.submit_op() for work in works)
            ops.extend(wait_all(works))
        ops.extend(api_backend.finalize_ops(rank))
        programs.append(HostProgram(ops))
    cluster.add_hosts(programs)

    final_time = cluster.run(until_us=deadline_us)

    completions = {rank: [] for rank in ranks}
    for rank, works in works_by_rank.items():
        for work in works:
            if not work.done:
                continue
            info = work.completion_info()
            completions[rank].append({
                "coll_id": work.key,
                "index": work.index,
                "signature": info.signature,
                "reduced": sum(contributions[member]
                               for member in info.member_ranks),
                "time_us": info.time_us,
            })

    survivors = _survivors(ranks, plan)
    expected = num_collectives * iterations
    report = cluster.engine.deadlock_report
    if report is not None:
        outcome = "deadlock"
    elif all(len(completions[rank]) >= expected for rank in survivors):
        outcome = "completed"
    else:
        outcome = "stuck"

    diagnostics = api_backend.diagnostics()
    result = ChaosResult(
        backend=label or api_backend.name,
        plan=plan.describe(),
        outcome=outcome,
        time_us=final_time,
        crashed_ranks=tuple(plan.crash_ranks()),
        survivor_ranks=survivors,
        expected_per_survivor=expected,
        completions=completions,
        recovery=diagnostics.get("recovery", {}),
        analysis=analyze_fault_deadlock(report, cluster),
        injected=list(injector.applied),
    )
    if "daemon_stats" in diagnostics:
        result.daemon_stats = diagnostics["daemon_stats"]
    return result


# -- backend parameterizations ---------------------------------------------------------


def run_dfccl_chaos(plan, topology="dual-3090-nvlink", world_size=16,
                    num_collectives=3, nbytes=1 << 20, iterations=2,
                    config=None, recovery=True, deadline_us=DEFAULT_DEADLINE_US,
                    seed=17):
    """Run the chaos workload through DFCCL (optionally without recovery)."""
    return run_chaos(
        "dfccl", plan, topology, world_size, num_collectives, nbytes, iterations,
        deadline_us=deadline_us, seed=seed,
        label="dfccl" if recovery else "dfccl-no-recovery",
        config=replace(config or DfcclConfig(), recovery_enabled=recovery),
    )


def run_nccl_chaos(plan, topology="dual-3090-nvlink", world_size=16,
                   num_collectives=3, nbytes=1 << 20, iterations=2,
                   deadline_us=DEFAULT_DEADLINE_US, seed=17):
    """Run the same workload through the dedicated-kernel baseline."""
    return run_chaos("nccl", plan, topology, world_size, num_collectives,
                     nbytes, iterations, deadline_us=deadline_us, seed=seed)


# -- the headline comparison -----------------------------------------------------------


def chaos_rank_crash_comparison(topology="dual-3090-nvlink", world_size=16,
                                crash_rank=None, crash_at_us=120.0,
                                nbytes=1 << 20, num_collectives=2, iterations=2,
                                seed=17, deadline_us=DEFAULT_DEADLINE_US):
    """Rank crash mid-all-reduce: the baseline wedges, DFCCL shrinks and finishes.

    Returns ``{"plan", "nccl", "dfccl"}`` where the NCCL result carries the
    wait-for-cycle analysis and the DFCCL result carries recovery events and
    per-rank reduction fingerprints.
    """
    victim = crash_rank if crash_rank is not None else world_size // 2
    plan = FaultPlan(name="rank-crash-mid-allreduce").add_crash(victim, crash_at_us)
    nccl = run_nccl_chaos(plan, topology, world_size, num_collectives, nbytes,
                          iterations, deadline_us=deadline_us, seed=seed)
    dfccl = run_dfccl_chaos(plan, topology, world_size, num_collectives, nbytes,
                            iterations, recovery=True,
                            deadline_us=deadline_us, seed=seed)
    return {"plan": plan.describe(), "nccl": nccl, "dfccl": dfccl}
