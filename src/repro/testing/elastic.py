"""Elastic scheduler fuzzing: preempt/resume and grow/rejoin scenarios.

The differential fuzzer (:mod:`repro.testing.fuzz`) checks cross-backend
conformance of collective *programs*; this module fuzzes the preemptive
multi-tenant scheduler: seeded scenarios of jobs plus elastic events — a
high-priority arrival forcing preemption, a migration, a mid-run cluster
grow, a device failure forcing rejoin — each event a timed scheduler action
replayed on the DFCCL backend by :func:`repro.bench.run_multijob`.

The oracle is twofold:

* **determinism** — a scenario replayed twice must produce byte-identical
  outcomes (event log, per-job lifecycle, checkpoint fingerprints): the
  virtual-time engine has no hidden nondeterminism, so any divergence is a
  scheduler ordering bug;
* **liveness and accounting invariants** — every job reaches a terminal
  state, no job starves (admitted but never placed), preempted jobs resume
  and complete, and a resumed job's cumulative iterations never exceed its
  spec.

``python -m repro.testing.fuzz --elastic 20`` runs twenty scenarios from
consecutive child seeds.
"""

from __future__ import annotations

import json

from repro.bench.multijob_experiments import run_multijob
from repro.common.rng import DeterministicRNG
from repro.multijob import JobSpec

#: Virtual-time ceiling per scenario — generous against the few-hundred-ms
#: job runtimes; hitting it means a liveness bug, not a tight budget.
SCENARIO_DEADLINE_US = 60_000_000.0

#: Elastic event kinds a scenario may draw (with repetition).
EVENT_KINDS = ("preempt-arrival", "migrate", "grow", "fail", "live-submit")


def generate_elastic_scenario(seed, max_jobs=3, max_events=3):
    """Draw one scenario as plain data (JSON-safe, a pure function of seed)."""
    stream = DeterministicRNG(seed).child("elastic-scenario")
    job_stream = stream.child("jobs")
    event_stream = stream.child("events")
    num_jobs = job_stream.randint(2, max_jobs)
    jobs = []
    arrival = 0.0
    for index in range(num_jobs):
        if index > 0:
            arrival += job_stream.uniform(1_000.0, 20_000.0)
        jobs.append({
            "job_id": f"ej-{index}",
            "dp": job_stream.choice([2, 2, 4]),
            "iterations": job_stream.randint(2, 3),
            "priority": job_stream.randint(0, 1),
            "arrival_time_us": arrival,
        })
    events = []
    for index in range(event_stream.randint(1, max_events)):
        kind = event_stream.choice(list(EVENT_KINDS))
        event = {"kind": kind,
                 "time_us": event_stream.uniform(20_000.0, 120_000.0)}
        if kind in ("preempt-arrival", "live-submit"):
            event["dp"] = (8 if kind == "preempt-arrival"
                           else event_stream.choice([2, 4]))
            event["iterations"] = event_stream.randint(2, 3)
        elif kind == "migrate":
            event["job"] = f"ej-{event_stream.randint(0, num_jobs - 1)}"
        elif kind == "fail":
            event["rank"] = event_stream.randint(0, 15)
        events.append(event)
    events.sort(key=lambda event: event["time_us"])
    return {"seed": seed, "jobs": jobs, "events": events}


def _event_action(event, index):
    """The scheduler action ``(scheduler, now)`` one scenario event becomes."""
    kind = event["kind"]
    if kind in ("preempt-arrival", "live-submit"):
        spec = JobSpec(
            job_id=f"ev-{index}-{kind}",
            model="resnet50",
            dp=event["dp"],
            iterations=event["iterations"],
            priority=3 if kind == "preempt-arrival" else 0,
            arrival_time_us=event["time_us"],
        )
        return lambda s, now: s.submit(spec)
    if kind == "migrate":
        def migrate(s, now, job=event["job"]):
            record = s.jobs.get(job)
            if record is not None and record.state.value == "running":
                s.migrate(job, now)
        return migrate
    if kind == "grow":
        return lambda s, now: s.grow_cluster(time_us=now)

    def fail(s, now, rank=event["rank"]):
        if not s.cluster.device(rank).failed:
            s.cluster.fail_rank(rank, now)
    return fail


def run_elastic_scenario(scenario):
    """Replay one scenario through :func:`run_multijob`; returns a JSON-safe
    outcome dict (``jobs`` are the scheduler's job rows)."""
    specs = [JobSpec(job_id=job["job_id"], model="resnet50", dp=job["dp"],
                     iterations=job["iterations"], priority=job["priority"],
                     arrival_time_us=job["arrival_time_us"])
             for job in scenario["jobs"]]
    actions = [(event["time_us"], _event_action(event, index))
               for index, event in enumerate(scenario["events"])]
    result = run_multijob(
        seed=scenario["seed"], specs=specs, tenants_per_gpu=1,
        interference=None, launch_jitter_us=100.0,
        deadline_us=SCENARIO_DEADLINE_US, actions=actions,
        preemption=True, starvation_boost_us=2_000_000.0,
    )
    summary = result["summary"]
    return {
        "events": result["events"],
        "jobs": result["jobs"],
        "summary": {key: summary[key] for key in
                    ("jobs", "completed", "degraded", "unfinished", "starved",
                     "preemptions", "migrations", "rejoins", "grow_events")},
        "total_time_us": result["time_us"],
    }


def check_elastic_scenario(scenario):
    """Replay twice; returns ``(problems, outcome)`` — empty list is a pass."""
    first = run_elastic_scenario(scenario)
    second = run_elastic_scenario(scenario)
    problems = []
    if json.dumps(first, sort_keys=True) != json.dumps(second, sort_keys=True):
        problems.append("nondeterministic: two replays diverged")
    summary = first["summary"]
    if summary["unfinished"]:
        problems.append(f"liveness: {summary['unfinished']} jobs unfinished "
                        f"at the scenario deadline")
    if summary["starved"]:
        problems.append(f"starvation: {summary['starved']} jobs never placed")
    for job in first["jobs"]:
        if job["preemptions"] and job["state"] not in ("completed", "degraded"):
            problems.append(f"{job['job']}: preempted but ended {job['state']}")
        spec_iterations = next(
            (entry["iterations"] for entry in scenario["jobs"]
             if entry["job_id"] == job["job"]), None)
        if spec_iterations is not None and \
                job["completed_iterations"] > spec_iterations:
            problems.append(f"{job['job']}: checkpointed "
                            f"{job['completed_iterations']} iterations "
                            f"of {spec_iterations}")
    return problems, first


def fuzz_elastic(seed=0, scenarios=20, stop_on_failure=True, log=print):
    """Run the elastic fuzz loop; returns a summary dict."""
    failures = []
    kind_histogram = {}
    for index in range(scenarios):
        scenario = generate_elastic_scenario(
            DeterministicRNG(seed).child("elastic", index).randint(0, 1 << 30))
        for event in scenario["events"]:
            kind_histogram[event["kind"]] = \
                kind_histogram.get(event["kind"], 0) + 1
        problems, outcome = check_elastic_scenario(scenario)
        if problems:
            log(f"[{index + 1}/{scenarios}] FAIL: {'; '.join(problems)}")
            failures.append({"index": index, "scenario": scenario,
                             "problems": problems, "outcome": outcome})
            if stop_on_failure:
                break
        else:
            log(f"[{index + 1}/{scenarios}] ok: "
                f"{outcome['summary']['preemptions']} preemptions, "
                f"{outcome['summary']['grow_events']} grows, "
                f"{outcome['summary']['rejoins']} rejoins")
    summary = {"seed": seed, "scenarios": scenarios,
               "kinds": dict(sorted(kind_histogram.items())),
               "failures": failures}
    log(f"elastic fuzz: {scenarios} scenarios, kinds {summary['kinds']} -> "
        f"{len(failures)} failing")
    return summary
