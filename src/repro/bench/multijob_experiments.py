"""Multi-tenant experiments: concurrent jobs on one shared cluster.

:func:`run_multijob` is the one driver that builds and runs a shared
cluster: one backend, one placement policy, one seeded job stream, optional
timed scheduler actions and a fault plan; per-job rows (JCT, queueing delay,
goodput, SLO, preemption and checkpoint state) plus aggregate metrics
(deadlock ratio, aggregate goodput, SLO attainment).  The experiments built
on it:

* :func:`multijob_policy_comparison` — the headline table: DFCCL vs the
  dedicated-kernel baseline for each placement policy on the same stream.
  Co-located dedicated kernels contend for SM block slots, so the baseline
  deadlocks *across* jobs; DFCCL's one shared daemon kernel per GPU cannot;
* :func:`multijob_under_churn` — job churn via :class:`repro.faults` plans:
  ranks crash mid-run, DFCCL recovery shrinks the affected jobs' collectives
  and the survivors finish (``degraded``), while untouched jobs complete;
* :func:`preemption_ablation` — preemptive scheduling vs run-to-completion
  on one saturated 8-GPU server (:data:`PREEMPTION_CLUSTER`): a
  24h-equivalent open-loop Zipf stream (:func:`preemption_job_stream`) that
  mixes latency-sensitive high-priority jobs (tight SLOs) with loose-SLO
  batch jobs, the regime where preempting a batch victim to admit a
  latency-sensitive arrival is a structural win: the victim's slack absorbs
  the checkpoint/restore detour while the arrival makes a deadline it would
  otherwise miss in the queue; :func:`preemption_slo_sweep` repeats it over
  seeds.

The elastic scheduler fuzzer (:mod:`repro.testing.elastic`) replays its
scenarios through :func:`run_multijob` as well.  All drivers are seeded and
deterministic; sweeping ``seed`` turns single runs into the deadlock-ratio
and SLO-gain distributions the headlines report.  The CI ``multijob-smoke``
job archives the preemption results as ``BENCH_controlplane.json``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.faults.injector import install_fault_plan
from repro.faults.plan import FaultPlan
from repro.gpusim import SmInterferenceModel, build_cluster
from repro.multijob.arrivals import estimate_standalone_us, generate_jobs
from repro.multijob.runtime import ClusterJobRunner
from repro.multijob.scheduler import install_scheduler

#: Virtual-time deadline: a shared cluster not drained by then is stuck.
MULTIJOB_DEADLINE_US = 8_000_000.0

#: SM slots per GPU in the shared-cluster experiments: tight enough that one
#: large-collective kernel fills the GPU, the regime where co-located
#: dedicated kernels fence each other out.
SHARED_CLUSTER_BLOCKS = 4

#: The preemption experiments' cluster, as :func:`run_multijob` keywords:
#: one saturated 8-GPU server, one tenant per GPU, starvation aging after
#: 1 s, and a virtual-time ceiling generous against the sub-second
#: makespans (a stream not drained by then is a liveness bug).
PREEMPTION_CLUSTER = {
    "topology": "single-3090",
    "tenants_per_gpu": 1,
    "starvation_boost_us": 1_000_000.0,
    "deadline_us": 240_000_000.0,
}

#: Priority-tiered SLO stretch over the standalone-runtime estimate.
#: High priority (2) models latency-sensitive jobs with tight deadlines;
#: low priority (0) models batch jobs with generous slack.  A uniform
#: stretch makes preemption pointless (everyone attains, or victims pay
#: more than beneficiaries gain); the tiering is what production mixed
#: workloads look like and what makes priority preemption structural.
PRIORITY_SLO_STRETCH = {0: 14.0, 1: 7.0, 2: 2.5}

#: Virtual-to-production time scale.  Simulated jobs run 2-3 iterations in
#: tens of virtual milliseconds; the production jobs they stand in for run
#: the same *arrival and contention profile* over hours.  One virtual
#: second of the stream therefore represents ~6.4x10^4 production seconds,
#: which maps the default 14-job stream's ~1.35 s makespan to a ~24h
#: production window.
TIME_COMPRESSION = 64_000.0


def equivalent_hours(total_time_us):
    """Production hours the virtual makespan stands in for."""
    return total_time_us * 1e-6 * TIME_COMPRESSION / 3600.0


def default_job_stream(seed, num_jobs=4, mean_interarrival_us=400.0):
    """The canned job stream the comparison experiments share.

    Data-parallel jobs with two gradient buckets: collectives large enough
    for full-GPU grids, arrivals bunched tightly enough that jobs overlap.
    """
    return generate_jobs(
        seed,
        num_jobs=num_jobs,
        mean_interarrival_us=mean_interarrival_us,
        size_classes=(2, 4, 8),
        models=("resnet50", "vit"),
        iterations_range=(2, 3),
        slo_stretch=8.0,
    )


def preemption_job_stream(seed, num_jobs=14):
    """The canned open-loop stream the preemption experiments share.

    Zipf-sized data-parallel jobs arriving fast enough to saturate the
    8-GPU cluster (offered load near capacity), three priority levels,
    Zipf-assigned tenants for quota accounting, and priority-tiered SLOs
    per :data:`PRIORITY_SLO_STRETCH`.
    """
    specs = generate_jobs(
        seed,
        num_jobs=num_jobs,
        mean_interarrival_us=25_000.0,
        size_classes=(2, 4, 8),
        models=("resnet50", "vit"),
        iterations_range=(2, 3),
        priority_levels=3,
        slo_stretch=None,
        tenants=("tenant-a", "tenant-b", "tenant-c"),
        name_prefix="cpjob",
    )
    return [replace(spec, slo_us=PRIORITY_SLO_STRETCH[spec.priority]
                    * estimate_standalone_us(spec))
            for spec in specs]


def run_multijob(backend="dfccl", policy="packed", topology="dual-3090",
                 seed=11, num_jobs=4, specs=None, tenants_per_gpu=2,
                 max_resident_blocks=SHARED_CLUSTER_BLOCKS,
                 launch_jitter_us=300.0, interference="default",
                 fault_plan=None, deadline_us=MULTIJOB_DEADLINE_US,
                 actions=(), **scheduler_options):
    """Run one seeded job stream on one shared cluster.

    ``interference="default"`` applies the standard
    :class:`SmInterferenceModel`; pass ``None`` for the contention-off
    ablation (tenant counters only), or a custom model instance.
    ``actions`` are ``(time_us, action)`` pairs, each handed to
    :meth:`~repro.multijob.ClusterScheduler.schedule` in order
    (``action(scheduler, now)``: live submissions, migrations, cluster
    growth, device failures); ``scheduler_options`` go to
    :func:`install_scheduler` (``preemption``, ``quotas``,
    ``starvation_boost_us``, ...).

    Returns ``{"backend", "policy", "seed", "summary", "jobs", "events",
    "engine_deadlock", "contention", "pool", "obs"}``.  ``obs`` is the
    cluster's :class:`~repro.obs.Observability` hub — spans, metrics and the
    flight recorder of the finished run.  ``summary["deadlock_ratio"]``
    counts placed-but-stuck jobs only when the engine actually recorded a
    deadlock; deadline cutoffs and never-placed jobs are reported separately.
    """
    if interference == "default":
        interference = SmInterferenceModel()
    cluster = build_cluster(
        topology, deadlock_mode="record",
        max_resident_blocks=max_resident_blocks,
        interference=interference,
    )
    runner = ClusterJobRunner(cluster, backend, launch_jitter_us=launch_jitter_us,
                              seed=seed)
    if specs is None:
        specs = default_job_stream(seed, num_jobs=num_jobs)
    scheduler = install_scheduler(cluster, runner, specs, policy=policy,
                                  tenants_per_gpu=tenants_per_gpu,
                                  **scheduler_options)
    for time_us, action in actions:
        scheduler.schedule(time_us, action)
    if fault_plan is not None:
        install_fault_plan(cluster, fault_plan)

    total = cluster.run(until_us=deadline_us)
    scheduler.finalize(total)
    engine_deadlock = cluster.engine.deadlock_report is not None
    summary = scheduler.summary(total)
    # Attribute stuck jobs to deadlock only when the engine recorded one;
    # otherwise they are deadline timeouts (or capacity starvation, counted
    # under never_placed) and must not inflate the deadlock ratio.
    summary["deadlock_ratio"] = summary["stuck_ratio"] if engine_deadlock else 0.0

    contention = {
        "cross_tenant_block_waits": sum(
            device.cross_tenant_block_waits for device in cluster.devices
        ),
        "peak_resident_tenants": max(
            device.peak_resident_tenants for device in cluster.devices
        ),
    }
    result = {
        "backend": backend,
        "policy": policy,
        "seed": seed,
        "time_us": total,
        "summary": summary,
        "jobs": scheduler.job_rows(),
        "events": list(scheduler.events),
        "engine_deadlock": engine_deadlock,
        "contention": contention,
        "obs": cluster.engine.obs,
    }
    diagnostics = runner.backend.diagnostics()
    if "pool" in diagnostics:
        result["pool"] = diagnostics["pool"]
    recovery = diagnostics.get("recovery")
    if recovery is not None:
        result["recoveries"] = recovery["recoveries"]
        result["recovery_events"] = [
            {"time_us": event["time_us"], "coll_id": event["coll_id"],
             "job": (event["coll_id"][0]
                     if isinstance(event["coll_id"], tuple) else None)}
            for event in recovery["events"]
        ]
    return result


def multijob_policy_comparison(policies=("packed", "spread", "nvlink-affine"),
                               backends=("nccl", "dfccl"), topology="dual-3090",
                               seed=11, num_jobs=4, tenants_per_gpu=2,
                               deadline_us=MULTIJOB_DEADLINE_US, **kwargs):
    """The headline table: per-(policy, backend) JCT / goodput / deadlock ratio.

    Every cell replays the *same* seeded arrival stream, so rows differ only
    in placement and backend.
    """
    rows = []
    for policy in policies:
        for backend in backends:
            result = run_multijob(
                backend=backend, policy=policy, topology=topology, seed=seed,
                num_jobs=num_jobs, tenants_per_gpu=tenants_per_gpu,
                deadline_us=deadline_us, **kwargs,
            )
            summary = result["summary"]
            rows.append({
                "policy": policy,
                "backend": backend,
                "jobs": summary["jobs"],
                "completed": summary["completed"],
                "deadlock_ratio": summary["deadlock_ratio"],
                "engine_deadlock": result["engine_deadlock"],
                "mean_jct_us": summary["mean_jct_us"],
                "mean_queueing_delay_us": summary["mean_queueing_delay_us"],
                "aggregate_goodput_samples_per_s":
                    summary["aggregate_goodput_samples_per_s"],
                "slo_attainment": summary["slo_attainment"],
                "cross_tenant_block_waits":
                    result["contention"]["cross_tenant_block_waits"],
            })
    return rows


def deadlock_ratio_sweep(seeds=range(1, 6), backend="nccl", policy="packed",
                         **kwargs):
    """Deadlock-ratio distribution over seeds (jobs unfinished / jobs)."""
    rows = []
    for seed in seeds:
        result = run_multijob(backend=backend, policy=policy, seed=seed, **kwargs)
        rows.append({
            "seed": seed,
            "deadlock_ratio": result["summary"]["deadlock_ratio"],
            "engine_deadlock": result["engine_deadlock"],
            "completed": result["summary"]["completed"],
        })
    mean_ratio = sum(row["deadlock_ratio"] for row in rows) / len(rows)
    return {"rows": rows, "mean_deadlock_ratio": mean_ratio}


def multijob_under_churn(seed=11, num_jobs=4, crash_rank=1, crash_at_us=40_000.0,
                         policy="packed", topology="dual-3090",
                         tenants_per_gpu=2, **kwargs):
    """Job churn through the fault plans: a leased rank crashes mid-run.

    DFCCL recovery shrinks every collective registered over the dead device —
    *across all jobs leasing it* — so affected jobs finish ``degraded`` while
    unaffected jobs complete normally.
    """
    plan = FaultPlan(name="multijob-churn").add_crash(crash_rank, at_us=crash_at_us)
    result = run_multijob(
        backend="dfccl", policy=policy, topology=topology, seed=seed,
        num_jobs=num_jobs, tenants_per_gpu=tenants_per_gpu,
        fault_plan=plan, **kwargs,
    )
    result["fault_plan"] = plan.describe()
    affected = [row["job"] for row in result["jobs"]
                if crash_rank in row["leased_ranks"]]
    result["affected_jobs"] = affected
    return result


def preemption_ablation(seed=11, num_jobs=14):
    """The headline pair: the same stream with and without preemption.

    ``preemption=False`` is the run-to-completion baseline: identical
    admission, placement and aging, but a queued high-priority job can
    never evict a running one.  Both sides run the DFCCL backend on
    :data:`PREEMPTION_CLUSTER`.  Returns both full :func:`run_multijob`
    results plus ``slo_gain`` — the SLO-attainment delta preemption buys on
    this stream.  Acceptance requires the gain strictly positive with zero
    starved jobs on both sides.
    """
    specs = preemption_job_stream(seed, num_jobs=num_jobs)
    with_preemption, baseline = (
        run_multijob(seed=seed, specs=specs, preemption=preemption,
                     **PREEMPTION_CLUSTER)
        for preemption in (True, False))
    return {
        "seed": seed,
        "preemption": with_preemption,
        "baseline": baseline,
        "slo_gain": (with_preemption["summary"]["slo_attainment"]
                     - baseline["summary"]["slo_attainment"]),
    }


def preemption_slo_sweep(seeds=(7, 11, 13, 23, 42), num_jobs=14):
    """SLO-gain distribution over seeds — the robustness check behind the
    headline single-seed number."""
    rows = []
    for seed in seeds:
        pair = preemption_ablation(seed=seed, num_jobs=num_jobs)
        rows.append({
            "seed": seed,
            "slo_preemption": pair["preemption"]["summary"]["slo_attainment"],
            "slo_baseline": pair["baseline"]["summary"]["slo_attainment"],
            "slo_gain": pair["slo_gain"],
            "preemptions": pair["preemption"]["summary"]["preemptions"],
            "starved": pair["preemption"]["summary"]["starved"],
        })
    mean_gain = sum(row["slo_gain"] for row in rows) / len(rows)
    return {"rows": rows, "mean_slo_gain": mean_gain}
