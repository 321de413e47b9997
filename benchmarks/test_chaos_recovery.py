"""Chaos suite: recovery time and goodput under seeded fault plans.

Replays the canned fault plans of ``repro.bench.fault_experiments`` with a
fixed seed, checks the headline behaviours (baseline deadlocks on a crash,
DFCCL shrinks the group and completes with byte-identical survivor
reductions), and reports the recovery-time / goodput rows the CI chaos-smoke
job archives.
"""

import pytest

from repro.bench import goodput_under_chaos, measure_recovery
from repro.faults.scenarios import chaos_rank_crash_comparison

CHAOS_SEED = 17

pytestmark = pytest.mark.timeout(600)


def test_rank_crash_mid_allreduce_comparison(benchmark):
    result = benchmark.pedantic(
        chaos_rank_crash_comparison, kwargs={"seed": CHAOS_SEED},
        iterations=1, rounds=1,
    )
    nccl, dfccl = result["nccl"], result["dfccl"]
    print("\nNCCL under rank crash:", nccl.outcome,
          "cycle:", nccl.analysis.cycle)
    print("DFCCL under rank crash:", dfccl.outcome,
          "recoveries:", dfccl.diagnostics["recovery"]["recoveries"])
    assert nccl.outcome == "deadlock"
    assert nccl.analysis.fault_induced
    assert dfccl.outcome == "completed"
    # Ranks sharing a participant signature must agree byte-for-byte; with
    # this fixed seed the crash lands mid-first-all-reduce, so every survivor
    # re-runs and the identity additionally holds across all survivors.
    assert dfccl.fingerprints_consistent()
    survivor_values = {}
    for record in dfccl.records:
        if record.done and record.rank in dfccl.survivor_ranks:
            survivor_values.setdefault(record.logical(), set()).add(
                (record.signature, record.reduced))
    assert survivor_values
    for values in survivor_values.values():
        assert len(values) == 1  # byte-identical survivor reductions


def test_recovery_time_breakdown(benchmark):
    row = benchmark.pedantic(measure_recovery, args=("crash",),
                             kwargs={"seed": CHAOS_SEED},
                             iterations=1, rounds=1)
    print("\nrecovery breakdown:", row)
    assert row["outcome"] == "completed"
    assert row["recoveries"] >= 1
    assert row["detection_latency_us"] > 0
    assert row["recovery_time_us"] > 0


def test_goodput_under_chaos_plans(benchmark):
    report = benchmark.pedantic(
        goodput_under_chaos, kwargs={"seed": CHAOS_SEED},
        iterations=1, rounds=1,
    )
    print("\nhealthy goodput/ms:", round(report["healthy_goodput_per_ms"], 2))
    for row in report["rows"]:
        print({key: (round(value, 3) if isinstance(value, float) else value)
               for key, value in row.items()})
    rows = {row["plan"]: row for row in report["rows"]}
    assert len(rows) >= 3  # at least three distinct fault plans
    # Every plan completes under DFCCL; crash plans wedge the baseline.
    for row in rows.values():
        assert row["outcome"] == "completed"
        if row["crashed_ranks"]:
            assert row["nccl_outcome"] == "deadlock"
            assert row["recoveries"] >= 1
        assert 0.0 < row["relative_goodput"] <= 1.05
