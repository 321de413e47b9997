"""Control-plane experiments: preemptive scheduling vs run-to-completion.

The headline driver replays a 24h-equivalent open-loop Zipf arrival stream
on one saturated 8-GPU cluster twice — once under the preemptive
:class:`repro.multijob.ClusterScheduler` (``preemption=True``) and once
with preemption disabled (plain run-to-completion, the no-preemption
baseline) — and compares SLO attainment.  The stream mixes
latency-sensitive high-priority jobs (tight SLOs) with loose-SLO batch
jobs, the regime where preempting a batch victim to admit a
latency-sensitive arrival is a structural win: the victim's slack absorbs
the checkpoint/restore detour while the arrival makes a deadline it would
otherwise miss in the queue.

Drivers:

* :func:`run_controlplane` — one seeded stream, one scheduler
  configuration (preemption on/off, tenant quotas, starvation aging,
  optional mid-run cluster grow) run through :func:`run_multijob`; per-job
  rows plus the summary (preemptions, resumes, migrations, rejoins,
  rejected, starved);
* :func:`preemption_ablation` — the headline pair on the *same* stream;
  returns both runs plus the SLO-attainment gain.

All drivers are seeded and deterministic; the CI ``multijob-smoke`` job
archives the results as ``BENCH_controlplane.json``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.multijob_experiments import run_multijob
from repro.multijob.arrivals import estimate_standalone_us, generate_jobs

#: Virtual-time ceiling: generous against the sub-second makespans below;
#: a stream not drained by then is a liveness bug, not a tight budget.
CONTROLPLANE_DEADLINE_US = 240_000_000.0

#: Priority-tiered SLO stretch over the standalone-runtime estimate.
#: High priority (2) models latency-sensitive jobs with tight deadlines;
#: low priority (0) models batch jobs with generous slack.  A uniform
#: stretch makes preemption pointless (everyone attains, or victims pay
#: more than beneficiaries gain); the tiering is what production mixed
#: workloads look like and what makes priority preemption structural.
PRIORITY_SLO_STRETCH = {0: 14.0, 1: 7.0, 2: 2.5}

#: Tenants for quota accounting; the arrival stream assigns them Zipf-style.
CONTROLPLANE_TENANTS = ("tenant-a", "tenant-b", "tenant-c")

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


def controlplane_job_stream(seed, num_jobs=14, mean_interarrival_us=25_000.0,
                            tenants=CONTROLPLANE_TENANTS):
    """The canned open-loop stream the control-plane experiments share.

    Zipf-sized data-parallel jobs arriving fast enough to saturate the
    8-GPU cluster (offered load near capacity), three priority levels,
    and priority-tiered SLOs per :data:`PRIORITY_SLO_STRETCH`.
    """
    specs = generate_jobs(
        seed,
        num_jobs=num_jobs,
        mean_interarrival_us=mean_interarrival_us,
        size_classes=(2, 4, 8),
        models=("resnet50", "vit"),
        iterations_range=(2, 3),
        priority_levels=3,
        slo_stretch=None,
        tenants=tenants,
        name_prefix="cpjob",
    )
    return [replace(spec, slo_us=PRIORITY_SLO_STRETCH[spec.priority]
                    * estimate_standalone_us(spec))
            for spec in specs]


def run_controlplane(seed=11, preemption=True, policy="packed",
                     topology="single-3090", num_jobs=14, specs=None,
                     tenants_per_gpu=1, quotas=None,
                     starvation_boost_us=1_000_000.0, grow_at_us=None,
                     launch_jitter_us=300.0,
                     deadline_us=CONTROLPLANE_DEADLINE_US):
    """Run one seeded stream under one scheduler configuration.

    ``preemption=False`` is the run-to-completion baseline: identical
    admission, placement and aging, but a queued high-priority job can
    never evict a running one.  ``grow_at_us`` schedules a mid-run
    :meth:`~repro.multijob.ClusterScheduler.grow_cluster` (elastic world
    growth).  Returns the :func:`run_multijob` result (DFCCL backend) plus
    ``equivalent_hours``.
    """
    if specs is None:
        specs = controlplane_job_stream(seed, num_jobs=num_jobs)
    result = run_multijob(
        backend="dfccl", policy=policy, topology=topology, seed=seed,
        specs=specs, tenants_per_gpu=tenants_per_gpu,
        launch_jitter_us=launch_jitter_us, deadline_us=deadline_us,
        grow_at_us=grow_at_us, preemption=preemption,
        starvation_boost_us=starvation_boost_us, quotas=quotas,
    )
    result["equivalent_hours"] = equivalent_hours(result["time_us"])
    return result


def preemption_ablation(seed=11, num_jobs=14, **kwargs):
    """The headline pair: same stream with and without preemption.

    Returns both full runs plus ``slo_gain`` — the SLO-attainment delta the
    preemptive control plane buys on this stream.  Acceptance requires the
    gain strictly positive with zero starved jobs on both sides.
    """
    with_preemption = run_controlplane(seed=seed, num_jobs=num_jobs,
                                       preemption=True, **kwargs)
    baseline = run_controlplane(seed=seed, num_jobs=num_jobs,
                                preemption=False, **kwargs)
    return {
        "seed": seed,
        "preemption": with_preemption,
        "baseline": baseline,
        "slo_gain": (with_preemption["summary"]["slo_attainment"]
                     - baseline["summary"]["slo_attainment"]),
    }


def preemption_slo_sweep(seeds=(7, 11, 13, 23, 42), num_jobs=14, **kwargs):
    """SLO-gain distribution over seeds — the robustness check behind the
    headline single-seed number."""
    rows = []
    for seed in seeds:
        pair = preemption_ablation(seed=seed, num_jobs=num_jobs, **kwargs)
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
