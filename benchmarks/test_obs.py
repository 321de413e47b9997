"""Observability suite: traced 64-rank metrics snapshot + overhead gate.

Two deliverables, both archived by the CI obs-smoke job:

* ``BENCH_obs.json`` — the metrics snapshot and calibration table of a traced
  64-rank all-reduce (the flight recorder and span tracer running always-on,
  exactly as every user run has them);
* the **overhead gate** — always-on flight recording must cost less than 10%
  wall time against an untraced run of the same workload
  (``build_scale_point(observe=False)``, the disabled-Observability control
  arm).

Observability must never change the simulation: the attribution test runs
each point plain, analyzed and unobserved on both backends and requires one
virtual time and one step count.
"""

import gc
import json
import os
import time

import pytest

from repro.bench import run_scale_point
from repro.bench.scale_experiments import build_scale_point

pytestmark = pytest.mark.timeout(900)

OBS_REPORT_PATH = os.environ.get("BENCH_OBS_PATH", "BENCH_obs.json")

_POINT = {"ranks": 64, "topology": "flat", "algorithm": "ring"}


def test_traced_64_rank_snapshot_writes_report():
    """A traced 64-rank all-reduce lands its metrics in BENCH_obs.json."""
    row = run_scale_point(**_POINT, collect_metrics=True)
    assert row["completed"]
    assert row["observed"]
    metrics = row["metrics"]
    assert metrics["engine_steps"] == row["steps"]
    assert metrics["collective_invocations"] == row["iterations"]
    assert metrics["daemon_launches"] >= 64
    assert any(key.startswith("link_bytes_total") for key in metrics)
    assert row["calibration"], "calibration samples expected on a traced run"

    with open(OBS_REPORT_PATH, "w", encoding="utf-8") as handle:
        json.dump(row, handle, indent=2, sort_keys=True, default=str)
    written = json.load(open(OBS_REPORT_PATH, encoding="utf-8"))
    assert written["metrics"]["engine_steps"] > 0
    assert written["calibration"]


@pytest.mark.parametrize("backend", ["dfccl", "nccl"])
@pytest.mark.parametrize("ranks,topology,algorithm", [
    (64, "flat", "ring"),
    (32, "fat-tree", "tree"),
    (32, "fat-tree", "hierarchical"),
], ids=["64-flat-ring", "32-fat-tree-tree", "32-fat-tree-hierarchical"])
def test_attribution_conserves_within_one_percent(backend, ranks, topology,
                                                  algorithm):
    """Time attribution: buckets sum to measured virtual time within 1% (the
    conservation invariant the CI obs-smoke job also gates through
    ``python -m repro.obs.report --analyze``), and neither analysis nor a
    disabled hub perturbs the simulation itself."""
    point = {"ranks": ranks, "topology": topology, "algorithm": algorithm,
             "backend": backend}
    arms = [run_scale_point(**point), run_scale_point(**point, analyze=True),
            run_scale_point(**point, observe=False)]
    assert all(arm["completed"] for arm in arms)
    # Observability must not change workload physics.
    assert len({(arm["virtual_time_us"], arm["steps"]) for arm in arms}) == 1
    analyzed = arms[1]
    attribution = analyzed["attribution"]
    assert attribution["worst_invocation_conservation_error"] <= 0.01
    run = attribution["run"]
    assert run["conservation_error"] <= 0.01
    assert sum(run["buckets"].values()) == pytest.approx(
        run["measured_us"], rel=0.01)
    assert run["critical_path"]["slowest_rank"]
    assert run["critical_path"]["slowest_link"]
    # Bucket-level calibration feedback names the mispredicted bucket.
    for cell in analyzed["calibration"]:
        assert cell["mispredicted_bucket"] is not None
        assert cell["measured_buckets"]


#: Virtual time each arm runs before the other takes over (about 1 ms of host
#: time): short enough that both arms see the same stretch of a shared host.
_SLICE_US = 10.0


def _interleaved_arms():
    """One repetition of each arm, run in alternating slices of virtual time.

    Returns ``{observe: row}`` with the ``run_scale_point`` row fields the
    gate reads.  Host speed on a shared machine swings by ±25% between runs
    a fraction of a second apart, which swamps a 10% bound when the two arms
    run one after the other.
    """
    points = {observe: build_scale_point(**_POINT, observe=observe)
              for observe in (True, False)}
    wall_s = dict.fromkeys(points, 0.0)
    running = set(points)
    until_us = 0.0
    gc.collect()
    gc.disable()
    try:
        while running:
            until_us += _SLICE_US
            for observe in (True, False):
                if observe not in running:
                    continue
                start = time.perf_counter()
                if points[observe][0].run(until_us=until_us) < until_us:
                    running.discard(observe)
                wall_s[observe] += time.perf_counter() - start
    finally:
        gc.enable()
    arms = {}
    for observe, (cluster, _, works) in points.items():
        arms[observe] = {
            "wall_s": wall_s[observe],
            "virtual_time_us": cluster.engine.now,
            "steps": cluster.engine.step_count,
            "completed": all(work.done for _, _, work in works),
            "observed": cluster.engine.obs.enabled,
        }
    return arms


def test_flight_recorder_overhead_under_10_percent():
    """Always-on recording costs <10% wall time vs the untraced control arm.

    The arms alternate slice by slice within each of three repetitions, and
    the best repetition's ratio is gated.
    """
    reps = [_interleaved_arms() for _ in range(3)]
    for arms in reps:
        traced, untraced = arms[True], arms[False]
        assert traced["completed"] and untraced["completed"]
        assert traced["observed"] and not untraced["observed"]
        # Identical workload physics: tracing must not change the simulation.
        assert traced["virtual_time_us"] == untraced["virtual_time_us"]
        assert traced["steps"] == untraced["steps"]
    traced, untraced = max(
        ((arms[True], arms[False]) for arms in reps),
        key=lambda pair: pair[1]["wall_s"] / pair[0]["wall_s"])
    ratio = untraced["wall_s"] / traced["wall_s"]
    print(f"\nflight-recorder overhead: traced {traced['wall_s']:.3f} s vs "
          f"untraced {untraced['wall_s']:.3f} s ({(1 - ratio):+.1%})")
    assert ratio >= 0.9
