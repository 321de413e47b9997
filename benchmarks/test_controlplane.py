"""Preemption suite: preemptive scheduling on one saturated cluster.

Replays the 24h-equivalent fixed-seed Zipf stream with and without
preemption, checks the headline behaviour — the preemptive scheduler
strictly beats the run-to-completion baseline on SLO attainment with zero
starved jobs, and every preempted job resumes from its checkpoint and
completes — and reports the rows the CI ``multijob-smoke`` job
archives as ``BENCH_controlplane.json``.
"""

import pytest

from repro.bench import (
    PREEMPTION_CLUSTER,
    equivalent_hours,
    preemption_ablation,
    preemption_job_stream,
    run_multijob,
)

CONTROLPLANE_SEED = 11

pytestmark = pytest.mark.timeout(600)


def test_headline_preemption_vs_baseline(benchmark):
    """Saturated 8-GPU cluster: preemption lifts SLO attainment, no one starves."""
    pair = benchmark.pedantic(
        preemption_ablation,
        kwargs={"seed": CONTROLPLANE_SEED},
        iterations=1, rounds=1,
    )
    preemptive = pair["preemption"]["summary"]
    baseline = pair["baseline"]["summary"]
    print("\npreemption:", preemptive)
    print("baseline:", baseline)
    print("slo gain:", pair["slo_gain"])
    hours = equivalent_hours(pair["preemption"]["time_us"])
    print("equivalent hours:", round(hours, 1))

    # The headline: strictly better SLO attainment than run-to-completion.
    assert pair["slo_gain"] > 0
    assert preemptive["slo_attainment"] > baseline["slo_attainment"]
    # No job starves on either side — aging keeps low-priority jobs moving.
    assert preemptive["starved"] == 0
    assert baseline["starved"] == 0
    # The cluster drains completely: every admitted job completes.
    assert preemptive["completed"] == preemptive["jobs"]
    assert baseline["completed"] == baseline["jobs"]
    assert preemptive["unfinished"] == 0
    # Preemption actually fired, and the victims resumed from checkpoints.
    assert preemptive["preemptions"] > 0
    assert preemptive["resumed_jobs"] > 0
    # Checkpoint/restore accounting: every preempted job still completed,
    # resuming from its checkpoint rather than restarting (epoch advanced,
    # cumulative iterations match the spec exactly).
    resumed = [row for row in pair["preemption"]["jobs"] if row["preemptions"]]
    assert resumed
    for row in resumed:
        assert row["state"] == "completed"
        assert row["epoch"] >= 1
    # The stream models a ~24h production window.
    assert hours >= 20.0


def test_seed_sweep_rows(benchmark):
    """The robustness rows behind the single-seed headline number."""
    from repro.bench import preemption_slo_sweep

    report = benchmark.pedantic(
        preemption_slo_sweep,
        kwargs={"seeds": (7, 11, 42)},
        iterations=1, rounds=1,
    )
    print("\nmean slo gain:", round(report["mean_slo_gain"], 3))
    for row in report["rows"]:
        print({key: (round(value, 3) if isinstance(value, float) else value)
               for key, value in row.items()})
    assert len(report["rows"]) == 3
    assert report["mean_slo_gain"] > 0
    for row in report["rows"]:
        assert row["slo_gain"] > 0, f"seed {row['seed']}: preemption must win"
        assert row["starved"] == 0


def test_elastic_grow_mid_stream(benchmark):
    """Mid-run world growth: new hosts join and queued jobs land on them."""
    grow = (100_000.0, lambda s, now: s.grow_cluster(time_us=now))
    result = benchmark.pedantic(
        run_multijob,
        kwargs=dict(PREEMPTION_CLUSTER, seed=CONTROLPLANE_SEED,
                    specs=preemption_job_stream(CONTROLPLANE_SEED),
                    preemption=True, actions=[grow]),
        iterations=1, rounds=1,
    )
    summary = result["summary"]
    print("\ngrow:", summary)
    assert summary["grow_events"] == 1
    assert any(event == "grow" for _, event, _ in result["events"])
    assert summary["completed"] == summary["jobs"]
    assert summary["starved"] == 0


def test_tenant_quota_admission(benchmark):
    """Admission control: an oversized job for a capped tenant is rejected."""
    result = benchmark.pedantic(
        run_multijob,
        kwargs=dict(PREEMPTION_CLUSTER, seed=CONTROLPLANE_SEED,
                    specs=preemption_job_stream(CONTROLPLANE_SEED),
                    preemption=True,
                    quotas={"tenant-b": 2, "tenant-a": 8, "tenant-c": 8}),
        iterations=1, rounds=1,
    )
    summary = result["summary"]
    print("\nquota:", summary)
    # This stream's 4-rank tenant-b job exceeds the 2-rank quota.
    assert summary["rejected"] >= 1
    rejected = [row for row in result["jobs"] if row["state"] == "rejected"]
    assert len(rejected) == summary["rejected"]
    for row in rejected:
        assert row["tenant"] == "tenant-b"
    # Rejections are not starvation, and admitted jobs still drain.
    assert summary["starved"] == 0
    assert summary["completed"] + summary["rejected"] == summary["jobs"]
