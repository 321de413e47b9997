"""Engine-scale experiments: virtual time and attribution up to 512 ranks.

``run_scale_point`` drives one all-reduce workload through the unified
``repro.api`` front-end on an N-rank cluster and reports virtual time, engine
steps, queue statistics and completion, plus the wall seconds of the engine
run (GC disabled across it).  ``scale_sweep`` runs the standard ladder — flat
multi-node rings up to 128 ranks, two-level fat-tree trees at 256/512, and the
512-rank point under every all-reduce schedule — once per point with time
attribution on, and ``write_scale_report`` lands the rows in
``BENCH_scale.json``.  The report holds only deterministic fields, so two
sweeps write byte-identical files.

Host speed is measured in wall seconds only: ``perfbench`` times the
512-rank point through :func:`run_scale_point`, and
:func:`machine_calibration_factor` normalizes a wall time to the speed of the
machine that recorded a baseline.
"""

from __future__ import annotations

import gc
import json
import time

from repro.common.types import CollectiveKind
from repro.gpusim import build_cluster, fat_tree_spec, multi_node_spec
from repro.testing.differential import install_program
from repro.testing.generator import collective_program

#: The standard sweep ladder: (ranks, topology kind, algorithm).  The three
#: 512-rank fat-tree points run the same workload under every all-reduce
#: schedule, so the report doubles as the flat-vs-hierarchical comparison
#: (virtual_time_us is the workload-physics column to compare).
SCALE_SWEEP_POINTS = (
    (16, "flat", "ring"),
    (64, "flat", "ring"),
    (128, "flat", "ring"),
    (256, "fat-tree", "tree"),
    (512, "fat-tree", "ring"),
    (512, "fat-tree", "tree"),
    (512, "fat-tree", "hierarchical"),
)


def machine_calibration_factor(iterations=200_000, repeats=3):
    """Pure-Python ops/sec of this machine (dict/attr/float mix).

    The loop shape roughly matches the simulator's instruction mix.  Used to
    normalize a wall time to the machine that recorded a baseline: a machine
    that runs Python half as fast is expected to run the engine half as fast.
    Returns the best of ``repeats`` short runs — wall times are likewise
    taken best-of-N, so both sides of a speedup ratio estimate the machine at
    its attainable speed rather than under transient load (claiming extra
    speedup from a loaded calibration run would be the dishonest direction;
    taking the max is the conservative one).
    """

    class _Probe:
        __slots__ = ("a", "b")

        def __init__(self):
            self.a = 0
            self.b = 1.0

    def once():
        probe = _Probe()
        table = {}
        start = time.perf_counter()
        for i in range(iterations):
            table[i & 1023] = i
            probe.a = table.get(i & 511, 0)
            probe.b = probe.b + 1.0
        return iterations / (time.perf_counter() - start)

    return max(once() for _ in range(repeats))


def _cluster_spec_for(ranks, topology):
    if topology == "flat":
        return multi_node_spec(ranks)
    if topology == "fat-tree":
        return fat_tree_spec(ranks)
    return topology  # a ClusterSpec or named topology, passed through


def build_scale_point(ranks, topology="flat", algorithm="ring", nbytes=1 << 20,
                      iterations=2, backend="dfccl", chunk_bytes=128 << 10,
                      observe=True, analyze=False):
    """Build, without running, the workload :func:`run_scale_point` times.

    Returns :func:`~repro.testing.differential.install_program`'s
    ``(cluster, api_backend, works)``, ``works`` being ``(rank, call, work)``
    triples: every rank's program is installed, so ``cluster.run()``
    executes the whole workload.
    """
    from repro.obs import Observability

    program = collective_program(
        _cluster_spec_for(ranks, topology), ranks, nbytes=nbytes,
        rounds=iterations, chunk_bytes=chunk_bytes, algorithm=algorithm)
    observability = None if observe else Observability(enabled=False)
    cluster, api_backend, works = install_program(
        program, backend, observability=observability)
    if analyze and cluster.engine.obs.enabled:
        cluster.engine.obs.enable_analysis()
    return cluster, api_backend, works


def run_scale_point(ranks, topology="flat", algorithm="ring", nbytes=1 << 20,
                    iterations=2, backend="dfccl", chunk_bytes=128 << 10,
                    observe=True, collect_metrics=False, analyze=False):
    """Run one N-rank all-reduce workload; return the measured row.

    GC is collected once and disabled across the measured region (standard
    steady-state benchmarking discipline; collector pauses would otherwise
    dominate run-to-run variance), and re-enabled before returning.

    ``observe=False`` runs with a disabled :class:`~repro.obs.Observability`
    hub — the control arm of the flight-recorder overhead gate.  With
    ``collect_metrics=True`` the row additionally carries the full metrics
    snapshot (always-on rows carry only the calibration samples).
    ``analyze=True`` opts the run into critical-path time attribution and
    attaches the decomposition as ``row["attribution"]``; analysis pays the
    trace-append cost in ``wall_s`` but never changes virtual time or steps.
    """
    cluster, api_backend, works = build_scale_point(
        ranks, topology=topology, algorithm=algorithm, nbytes=nbytes,
        iterations=iterations, backend=backend, chunk_bytes=chunk_bytes,
        observe=observe, analyze=analyze)

    gc.collect()
    gc.disable()
    try:
        wall_start = time.perf_counter()
        final_time_us = cluster.run()
        wall_s = time.perf_counter() - wall_start
    finally:
        gc.enable()

    completed = all(work.done for _, _, work in works)
    row = {
        "ranks": ranks,
        "topology": topology if isinstance(topology, str) else "custom",
        "backend": backend,
        "algorithm": algorithm,
        "nbytes": nbytes,
        "iterations": iterations,
        "completed": completed,
        "steps": cluster.engine.step_count,
        "wall_s": wall_s,
        "virtual_time_us": final_time_us,
        "queue_stats": cluster.engine.queue_stats(),
        "observed": cluster.engine.obs.enabled,
    }
    obs = cluster.engine.obs
    if obs.enabled:
        if analyze and obs.analysis is not None:
            from repro.obs.analysis import analyze_run

            row["attribution"] = attribution_summary(analyze_run(obs))
        # After analyze_run the calibration rows carry per-bucket feedback
        # (measured_buckets / mispredicted_bucket) for each cell.
        row["calibration"] = obs.calibration_report()
        if collect_metrics:
            api_backend.diagnostics()  # folds link metrics into the registry
            row["metrics"] = obs.metrics.snapshot()
    cluster.close()
    return row


def attribution_summary(results):
    """Compact, JSON-safe summary of one run's time attribution.

    Keeps the run-level bucket decomposition plus per-invocation buckets and
    the named slowest rank / slowest link — the fields the scale report's
    acceptance gates assert on — while dropping the per-edge flow detail.
    """
    def compact(result):
        path = result["critical_path"]
        return {
            "measured_us": result["measured_us"],
            "buckets": dict(result["buckets"]),
            "tiers": dict(result["tiers"]),
            "conservation_error": result["conservation_error"],
            "critical_path": {
                "nodes": path["nodes"],
                "cross_rank_edges": path["cross_rank_edges"],
                "path_time_us": path["path_time_us"],
                "slowest_rank": path["slowest_rank"],
                "slowest_link": path["slowest_link"],
            },
            "straggler": result["straggler"],
        }

    invocations = [dict(compact(inv),
                        invocation=inv["invocation"],
                        algorithm=inv["algorithm"])
                   for inv in results.get("invocations") or ()]
    errors = [inv["conservation_error"] for inv in invocations]
    run_result = results.get("run")
    return {
        "run": compact(run_result) if run_result else None,
        "invocations": invocations,
        "worst_invocation_conservation_error": max(errors) if errors else None,
    }


def selector_report(ranks=512, nbytes=1 << 20):
    """The cost model's verdict on the headline fat-tree all-reduce point.

    Recorded alongside the measured rows so the report shows both that the
    hierarchical schedule *wins* (virtual_time_us of the 512-rank trio) and
    that ``algorithm="auto"`` *picks* it from the alpha-beta estimates.
    """
    from repro.collectives import AlgorithmSelector

    cluster = build_cluster(fat_tree_spec(ranks))
    device_ids = [cluster.device(rank).device_id for rank in range(ranks)]
    selector = AlgorithmSelector(cluster.interconnect)
    choice = selector.choose(CollectiveKind.ALL_REDUCE, nbytes, ranks,
                             device_ids)
    cluster.close()
    return {
        "ranks": ranks,
        "topology": "fat-tree",
        "nbytes": nbytes,
        "auto_algorithm": choice.algorithm,
        "predicted_ring_cost_us": choice.ring_cost_us,
        "predicted_tree_cost_us": choice.tree_cost_us,
        "predicted_hierarchical_cost_us": choice.hierarchical_cost_us,
    }


def selector_calibration_section(rows):
    """Aggregate per-point cost-model error into the report section.

    Each measured row carries the run's calibration samples (predicted
    selector cost vs measured virtual time per completed collective); this
    flattens them into one table keyed by (ranks, topology, algorithm) and
    records the worst absolute relative error across the ladder.
    """
    points = []
    for row in rows:
        for sample in row.get("calibration", ()):
            points.append({
                "ranks": row["ranks"],
                "topology": row["topology"],
                "backend": sample["backend"],
                "algorithm": sample["algorithm"],
                "kind": sample["kind"],
                "nbytes": sample["nbytes"],
                "group_size": sample["group_size"],
                "samples": sample["samples"],
                "predicted_cost_us": sample["predicted_cost_us"],
                "measured_cost_us": sample["measured_cost_us"],
                "relative_error": sample["relative_error"],
            })
    errors = [abs(point["relative_error"]) for point in points
              if point["relative_error"] is not None]
    return {
        "points": points,
        "worst_relative_error": max(errors) if errors else None,
    }


def scale_sweep(points=SCALE_SWEEP_POINTS, nbytes=1 << 20, iterations=2):
    """Run the standard ladder once per point, with time attribution on.

    Each row keeps only deterministic fields (``wall_s`` is dropped), so the
    report is a pure function of the points.
    """
    rows = []
    for ranks, topology, algorithm in points:
        row = run_scale_point(ranks, topology=topology, algorithm=algorithm,
                              nbytes=nbytes, iterations=iterations,
                              analyze=True)
        del row["wall_s"]
        rows.append(row)
    return {
        "selector_512": selector_report(nbytes=nbytes),
        "selector_calibration": selector_calibration_section(rows),
        "points": rows,
    }


def write_scale_report(path="BENCH_scale.json", report=None, **sweep_kwargs):
    """Run (or take) a sweep and write it to ``path``; returns the report."""
    if report is None:
        report = scale_sweep(**sweep_kwargs)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return report
