"""Engine-scale suite: virtual-time ladder up to a 512-rank two-level fat-tree.

Runs the :mod:`repro.bench.scale_experiments` sweep once per point, writes the
rows to ``BENCH_scale.json`` (archived by the CI scale-smoke job) and gates:

* every ladder point's virtual time, exactly, and a byte-identical report from
  two sweeps of the same points;
* the 64-rank ring point's wall seconds at most a third of the pre-overhaul
  engine's, recorded in :data:`PRE_PR_BASELINE` (machine-normalized through
  the calibration loop);
* a 512-rank all-reduce on a two-level fat-tree completes outright.
"""

import json
import os

import pytest

from repro.bench import (
    machine_calibration_factor,
    run_scale_point,
    scale_sweep,
    write_scale_report,
)

pytestmark = pytest.mark.timeout(900)

SCALE_REPORT_PATH = os.environ.get("BENCH_SCALE_PATH", "BENCH_scale.json")

#: Wall seconds of the pre-overhaul engine (lazy-deletion double heap,
#: uncached link resolution, Flag-arithmetic primitives) on the 64-rank sweep
#: point — ``run_scale_point(64, topology="flat")`` — measured at commit
#: c7a1c39 on the machine whose calibration score is recorded alongside (best
#: of four runs, GC disabled during the measured region, like run_scale_point
#: does; the calibration score is the same best-of-3 measurement
#: :func:`machine_calibration_factor` performs).
PRE_PR_BASELINE = {
    "ranks": 64,
    "topology": "flat",
    "algorithm": "ring",
    "wall_s": 0.311,
    "calibration_ops_per_sec": 8.24e6,
    "measured_at": "c7a1c39",
}

#: Virtual time of every ladder point, in ``SCALE_SWEEP_POINTS`` order.
LADDER_VIRTUAL_TIME_US = (
    (16, "ring", 1023.0844914285724),
    (64, "ring", 2092.371622857146),
    (128, "ring", 3480.186144761888),
    (256, "tree", 20032.669347532406),
    (512, "ring", 17955.70303619007),
    (512, "tree", 24689.64892987004),
    (512, "hierarchical", 2928.4756685714237),
)


def test_scale_sweep_writes_report(benchmark):
    """The full ladder completes and lands in BENCH_scale.json."""

    report = benchmark.pedantic(
        lambda: write_scale_report(SCALE_REPORT_PATH),
        iterations=1, rounds=1,
    )
    assert [(row["ranks"], row["algorithm"], row["virtual_time_us"])
            for row in report["points"]] == list(LADDER_VIRTUAL_TIME_US)
    assert all(row["completed"] for row in report["points"])
    # The 512-rank fat-tree trio: the hierarchical schedule beats flat ring
    # and tree on virtual time (the workload-physics column), and the cost
    # model picks it automatically.
    trio = {row["algorithm"]: row for row in report["points"]
            if row["ranks"] == 512}
    assert set(trio) == {"ring", "tree", "hierarchical"}
    assert (trio["hierarchical"]["virtual_time_us"]
            < trio["ring"]["virtual_time_us"])
    assert (trio["hierarchical"]["virtual_time_us"]
            < trio["tree"]["virtual_time_us"])
    selector = report["selector_512"]
    assert selector["auto_algorithm"] == "hierarchical"
    assert (selector["predicted_hierarchical_cost_us"]
            < min(selector["predicted_ring_cost_us"],
                  selector["predicted_tree_cost_us"]))
    # Cost-model calibration: every ladder point contributes a predicted vs
    # measured row, covering 64 ranks and the full 512-rank algorithm trio.
    calibration = report["selector_calibration"]
    cal_ranks = {point["ranks"] for point in calibration["points"]}
    assert {64, 512} <= cal_ranks
    assert {point["algorithm"] for point in calibration["points"]
            if point["ranks"] == 512} == {"ring", "tree", "hierarchical"}
    for point in calibration["points"]:
        assert point["predicted_cost_us"] > 0.0
        assert point["measured_cost_us"] > 0.0
        assert point["relative_error"] is not None
    assert calibration["worst_relative_error"] is not None
    # The tree cost model's inter-pod spine term: on the two-level fat-tree
    # points (256/512 ranks) the tree prediction must land within 25% of the
    # measured virtual time — without the term it missed by >50%.
    tree_points = [point for point in calibration["points"]
                   if point["algorithm"] == "tree"
                   and point["topology"] == "fat-tree"]
    assert tree_points
    for point in tree_points:
        assert abs(point["relative_error"]) < 0.25, point
    # Per-algorithm time attribution on the 512-rank trio: the bucket
    # decomposition conserves measured virtual time to within 1% and the
    # critical path names the slowest rank and link.
    for algorithm, row in trio.items():
        attribution = row["attribution"]
        run = attribution["run"]
        assert run["conservation_error"] <= 0.01, algorithm
        assert sum(run["buckets"].values()) == pytest.approx(
            run["measured_us"], rel=0.01)
        assert attribution["worst_invocation_conservation_error"] <= 0.01
        path = run["critical_path"]
        assert path["slowest_rank"]
        assert path["slowest_link"] and "->" in path["slowest_link"]
    # The artifact parses back to the report and carries no host timings.
    with open(SCALE_REPORT_PATH, encoding="utf-8") as fh:
        written = fh.read()
    assert json.loads(written) == json.loads(json.dumps(report))
    for host_field in ("wall_s", "_per_sec", "speedup", "pre_pr"):
        assert host_field not in written


def test_scale_sweep_report_is_deterministic():
    """Two sweeps of the same points produce byte-identical reports."""
    points = ((16, "flat", "ring"), (32, "fat-tree", "tree"))
    first, second = (json.dumps(scale_sweep(points), sort_keys=True)
                     for _ in range(2))
    assert first == second


def test_64_rank_speedup_over_pre_pr_engine():
    """The overhauled engine needs at most a third of the recorded pre-PR
    64-rank wall time, normalized to this machine's speed."""
    calibration = machine_calibration_factor()
    rows = [run_scale_point(64, topology="flat", algorithm="ring")
            for _ in range(5)]
    assert all(row["completed"] for row in rows)
    normalized_s = (min(row["wall_s"] for row in rows) * calibration
                    / PRE_PR_BASELINE["calibration_ops_per_sec"])
    speedup = PRE_PR_BASELINE["wall_s"] / normalized_s
    print(f"\n64-rank: {normalized_s:.4f} s normalized vs pre-PR "
          f"{PRE_PR_BASELINE['wall_s']} s -> speedup {speedup:.2f}x")
    assert speedup >= 3.0


def test_512_rank_fat_tree_all_reduce_completes():
    """512 ranks over a two-level fat-tree: the headline scale point."""
    row = run_scale_point(512, topology="fat-tree", algorithm="tree",
                          iterations=1)
    print(f"\n512-rank: wall {row['wall_s']:.2f}s, {row['steps']} steps, "
          f"vtime {row['virtual_time_us']:.0f}us")
    assert row["completed"]
    assert row["virtual_time_us"] > 0
    # The indexed event queue stays dense even at this scale (the engine's
    # compaction invariant: stale entries never exceed half the queue beyond
    # the small-queue threshold).
    stats = row["queue_stats"]
    assert stats["stale"] <= max(64, stats["entries"] // 2)
