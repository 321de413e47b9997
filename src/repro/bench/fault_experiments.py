"""Chaos experiments: recovery time and goodput under fault plans.

These drivers extend the paper's evaluation beyond healthy clusters: the same
collective workload is replayed with seeded fault plans injected, and the
reported quantities are the ones an operator cares about —

* **detection latency** — crash to CQE-timeout confirmation;
* **recovery time** — confirmation to the last surviving rank's completion of
  the re-formed collectives;
* **goodput under chaos** — survivor-side completed collectives per virtual
  millisecond, relative to the same workload on a healthy cluster;
* **baseline behaviour** — whether the dedicated-kernel baseline survived the
  same plan at all (it deadlocks on any crash).
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan
from repro.faults.scenarios import run_dfccl_chaos, run_nccl_chaos

#: Virtual-time horizon the canned plans are scaled to (us).
CHAOS_HORIZON_US = 8_000.0


def _crash_plan(world_size, horizon_us=CHAOS_HORIZON_US):
    return FaultPlan(name="crash").add_crash(world_size // 2, at_us=0.015 * horizon_us)


def _double_crash_plan(world_size, horizon_us=CHAOS_HORIZON_US):
    return (FaultPlan(name="double-crash")
            .add_crash(world_size // 2, at_us=0.015 * horizon_us)
            .add_crash(world_size - 1, at_us=0.5 * horizon_us))


def _flap_plan(world_size, horizon_us=CHAOS_HORIZON_US):
    # Flap the two node-boundary ring edges: the inter-node RDMA links every
    # ring collective over the full group must cross.
    half = world_size // 2
    return (FaultPlan(name="link-flap")
            .add_link_flap(half - 1, half, at_us=0.01 * horizon_us,
                           duration_us=0.15 * horizon_us)
            .add_link_flap(world_size - 1, 0, at_us=0.3 * horizon_us,
                           duration_us=0.1 * horizon_us))


def _straggler_plan(world_size, horizon_us=CHAOS_HORIZON_US):
    return (FaultPlan(name="straggler")
            .add_straggler(1, at_us=0.01 * horizon_us, factor=6.0,
                           duration_us=0.4 * horizon_us)
            .add_kernel_stall(2, at_us=0.2 * horizon_us, duration_us=120.0))


def _mixed_plan(world_size, horizon_us=CHAOS_HORIZON_US):
    return FaultPlan.random(
        seed=1236, world_size=world_size, horizon_us=0.6 * horizon_us,
        expected_crashes=2.0, expected_stragglers=2.0, expected_flaps=2.0,
        expected_stalls=2.0, name="mixed-seeded", protect_ranks=(0,),
    )


#: The canned chaos plans (name -> factory(world_size, horizon_us)).
CHAOS_PLANS = {
    "crash": _crash_plan,
    "double-crash": _double_crash_plan,
    "link-flap": _flap_plan,
    "straggler": _straggler_plan,
    "mixed-seeded": _mixed_plan,
}


def _survivor_completions(result):
    """The done records of ``result``'s surviving ranks."""
    survivors = set(result.survivor_ranks)
    return [record for record in result.records
            if record.done and record.rank in survivors]


def _last_survivor_completion_us(result):
    times = [record.time_us for record in _survivor_completions(result)]
    return max(times) if times else None


def measure_recovery(plan_name="crash", topology="dual-3090-nvlink",
                     world_size=16, num_collectives=3, nbytes=1 << 20,
                     iterations=2, seed=17):
    """Recovery-time breakdown for one crash-bearing plan.

    Returns a row with crash/detection/completion timestamps, the detection
    latency and the recovery time (confirmation -> last survivor completion).
    """
    plan = CHAOS_PLANS[plan_name](world_size)
    result = run_dfccl_chaos(plan, topology, world_size, num_collectives,
                             nbytes, iterations, seed=seed)
    recovery = result.diagnostics.get("recovery", {})
    events = recovery.get("events", [])
    first_event = events[0] if events else None
    last_completion = _last_survivor_completion_us(result)
    row = {
        "plan": plan_name,
        "outcome": result.outcome,
        "crashed_ranks": tuple(plan.crash_ranks()),
        "recoveries": recovery.get("recoveries", 0),
        "detection_latency_us": (first_event["detection_latency_us"]
                                 if first_event else None),
        "recovery_confirmed_us": first_event["time_us"] if first_event else None,
        "last_survivor_completion_us": last_completion,
        "recovery_time_us": (
            last_completion - first_event["time_us"]
            if first_event and last_completion is not None else None
        ),
        "total_time_us": result.time_us,
    }
    return row


def goodput_under_chaos(plans=None, topology="dual-3090-nvlink", world_size=16,
                        num_collectives=3, nbytes=1 << 20, iterations=2,
                        seed=17, include_baseline=True):
    """Survivor goodput for each chaos plan, relative to a healthy run.

    Goodput counts survivor-side completed collectives per virtual
    millisecond.  ``include_baseline`` adds the dedicated-kernel backend's
    outcome under the same plan (deadlock / stuck / completed).
    """
    if plans is None:
        plans = ["crash", "double-crash", "link-flap", "straggler", "mixed-seeded"]

    healthy = run_dfccl_chaos(FaultPlan(name="healthy"), topology, world_size,
                              num_collectives, nbytes, iterations, seed=seed)
    healthy_completions = sum(record.done for record in healthy.records)
    healthy_goodput = healthy_completions / (healthy.time_us / 1e3)

    rows = []
    for plan_name in plans:
        plan = CHAOS_PLANS[plan_name](world_size)
        chaos = run_dfccl_chaos(plan, topology, world_size, num_collectives,
                                nbytes, iterations, seed=seed)
        survivor_completions = len(_survivor_completions(chaos))
        goodput = survivor_completions / (chaos.time_us / 1e3) if chaos.time_us else 0.0
        row = {
            "plan": plan_name,
            "events": len(plan),
            "outcome": chaos.outcome,
            "crashed_ranks": tuple(plan.crash_ranks()),
            "recoveries": chaos.diagnostics.get("recovery", {}).get("recoveries", 0),
            "survivor_completions": survivor_completions,
            "time_us": chaos.time_us,
            "goodput_per_ms": goodput,
            "relative_goodput": goodput / healthy_goodput if healthy_goodput else 0.0,
        }
        if include_baseline:
            baseline = run_nccl_chaos(plan, topology, world_size,
                                      num_collectives, nbytes, iterations,
                                      seed=seed)
            row["nccl_outcome"] = baseline.outcome
        rows.append(row)
    return {
        "healthy_goodput_per_ms": healthy_goodput,
        "healthy_time_us": healthy.time_us,
        "rows": rows,
    }
