"""Run the benchmark: each repetition in a fresh interpreter, one at a time.

    PYTHONPATH=src python -m perfbench [--workload W] [--seed S]
        [--reps N | --seconds T] [--trace 0|1] [--out FILE]
    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

``--reps N`` runs N untraced repetitions per workload (default 5);
``--seconds T`` instead keeps starting repetitions until about T seconds have
passed (at least one).  ``--trace 1`` (the default) adds one traced
repetition for the per-layer metrics.  Every metric is printed with its unit;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
``--out`` writes every metric with its quartiles for ``perfbench.compare``.
Host times are expressed at a reference host speed (``REFERENCE_OPS_PER_S``)
so that the slow stretches of a shared host do not read as regressions.
A repetition that crashes stops the benchmark with exit status 1 and no
result line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: A repetition that takes longer than this is killed and fails the run.
REP_TIMEOUT_S = 170

#: Host times are reported as seconds on a host whose calibration loop runs
#: at this speed (ops/s): a repetition's raw times are scaled by its measured
#: speed over this one.  The host these numbers come from, a 2-core VM on a
#: shared machine, reads about 8.5 Mops/s in its fast stretches and half
#: that in its slow ones, which last minutes and double every raw timing.
REFERENCE_OPS_PER_S = 8.5e6

#: Units of host-time metrics, which the reference speed applies to.
HOST_TIME_UNITS = ("s", "ms", "us")


class RepError(RuntimeError):
    """A repetition process failed to produce its record."""


def unit_of(name):
    """The unit of a metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us") or ".us_" in name or name.startswith("us_"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", ".overhead")):
        return "1"
    return "count"


def load_spec(path=SPEC_PATH):
    """The benchmark description (workloads, metrics, bounds)."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_rep(workload, seed, traced):
    """Run one repetition in a fresh interpreter; return its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (os.path.join(ROOT, "src"), ROOT, env.get("PYTHONPATH"))
        if path)
    # A fixed hash seed keeps set/dict layouts, and so host time, the same
    # from one interpreter to the next.
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, "-m", "perfbench.rep", workload, str(seed)]
    if traced:
        command.append("--trace")
    completed = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               text=True, timeout=REP_TIMEOUT_S, check=False)
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        raise RepError(f"{' '.join(command)} exited {completed.returncode}")
    return json.loads(lines[-1])


def percentile(values, q):
    """Nearest-rank ``q``-th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def quartiles(values):
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return {"median": values[0], "p25": values[0], "p75": values[0], "n": 1}
    p25, median, p75 = statistics.quantiles(values, n=4)
    return {"median": median, "p25": p25, "p75": p75, "n": len(values)}


def host_scale(rep):
    """Factor taking a repetition's raw host times to reference-host times."""
    return rep["calibration_ops_per_s"] / REFERENCE_OPS_PER_S


def aggregate(reps, traced=None):
    """Fold one workload's repetition records into its metrics.

    Host timings come from the untraced repetitions and are expressed at the
    reference host speed (``wall_raw_s`` keeps the raw wall time).
    ``sim_us`` must be the same in every repetition, traced included; if it
    is not, every unit of the workload counts as failed.
    """
    every = reps + ([traced] if traced else [])
    attempted = sum(rep["attempted"] for rep in every)
    deterministic = len({rep["sim_us"] for rep in every}) == 1
    failed = sum(rep["failed"] for rep in every) if deterministic else attempted
    def host_time(value_of):
        return quartiles([value_of(rep) * host_scale(rep) for rep in reps])

    e2e = {
        "wall_s": host_time(lambda rep: rep["wall_s"]),
        "setup_s": host_time(lambda rep: rep["setup_s"]),
        "us_per_rank_coll": host_time(lambda rep: rep["wall_s"] * 1e6
                                      / rep["rank_collectives"]),
        "peak_rss_mb": quartiles([rep["peak_rss_mb"] for rep in reps]),
        "program_p50_ms": host_time(lambda rep: percentile(rep["program_ms"], 50)),
        "program_p99_ms": host_time(lambda rep: percentile(rep["program_ms"], 99)),
        "wall_raw_s": quartiles([rep["wall_s"] for rep in reps]),
        # Exact quantities, checked over every repetition, traced included.
        "sim_us": dict(quartiles([reps[0]["sim_us"]]), n=len(every)),
        "fail_ratio": dict(quartiles([failed / attempted]), n=len(every)),
    }
    for name, entry in e2e.items():
        entry["unit"] = unit_of(name)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "deterministic": deterministic,
        "reps": len(reps),
        "programs_per_rep": len(reps[0]["program_ms"]),
        "calibration_ops_per_s": statistics.median(
            rep["calibration_ops_per_s"] for rep in reps),
        "details": reps[0]["details"],
        "e2e": e2e,
    }
    if traced:
        scale = host_scale(traced)
        per_layer = {name: value * scale if unit_of(name) in HOST_TIME_UNITS else value
                     for name, value in traced["per_layer"].items()}
        result["traced_wall_s"] = traced["wall_s"] * scale
        per_layer["trace.overhead"] = result["traced_wall_s"] / e2e["wall_s"]["median"] - 1
        result["per_layer"] = {name: {"value": value, "unit": unit_of(name)}
                               for name, value in per_layer.items()}
    return result


def run_workload(workload, seed, reps=None, seconds=None, trace=True):
    """Run a workload's repetitions and aggregate them.

    With ``seconds``, another repetition starts only while half a typical
    repetition still fits in the budget, so a run overshoots it by at most
    half a repetition.
    """
    records, durations = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        records.append(run_rep(workload, seed, traced=False))
        durations.append(time.perf_counter() - began)
        if reps is not None:
            if len(records) >= reps:
                break
        elif (time.perf_counter() - start + statistics.median(durations) / 2
              > seconds):
            break
    traced = run_rep(workload, seed, traced=True) if trace else None
    return aggregate(records, traced)


def print_report(workload, seed, result, out=sys.stdout):
    """Human-readable report of one workload's metrics."""
    traced = " + 1 traced" if "per_layer" in result else ""
    print(f"== {workload} (seed {seed}): {result['reps']} repetition(s){traced}, "
          f"{result['failed']}/{result['attempted']} units failed, "
          f"{result['programs_per_rep']} programs per repetition, host calibration "
          f"{result['calibration_ops_per_s'] / 1e6:.2f} Mops/s", file=out)
    for name, entry in result["e2e"].items():
        print(f"  {name:<24} {entry['median']:>14.6g} {entry['unit']:<5}"
              f"  p25 {entry['p25']:.6g}  p75 {entry['p75']:.6g}  n={entry['n']}",
              file=out)
    if not result["deterministic"]:
        print("  sim_us differs between repetitions: every unit failed", file=out)
    for key, value in result["details"].items():
        print(f"  {key}: {value}", file=out)
    if traced:
        print("  per layer (traced repetition):", file=out)
        for name, entry in sorted(result["per_layer"].items()):
            print(f"  {name:<32} {entry['value']:>14.6g} {entry['unit']}", file=out)
        self_s = sum(entry["value"] for name, entry in result["per_layer"].items()
                     if name.endswith(".self_s"))
        print(f"  self_s total {self_s:.3f} s = "
              f"{100 * self_s / result['traced_wall_s']:.1f}% of traced wall_s",
              file=out)


def result_line(results, spec, traced):
    """The final JSON object: BENCHMARK.json's metrics for the run's mode.

    With several workloads each metric name is prefixed with its workload.
    """
    metrics = {}
    for workload, result in results.items():
        if traced:
            values = {name: entry["value"] for name, entry in result["per_layer"].items()}
            units = {name: entry["unit"] for name, entry in result["per_layer"].items()}
        else:
            values = {name: entry["median"] for name, entry in result["e2e"].items()}
            units = {name: entry["unit"] for name, entry in result["e2e"].items()}
        for metric in spec["per_layer" if traced else "end_to_end"]:
            name = metric["name"]
            if units[name] != metric["unit"]:
                raise ValueError(f"{name}: unit {units[name]} but BENCHMARK.json "
                                 f"says {metric['unit']}")
            key = name if len(results) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": values[name], "unit": metric["unit"]}
    return {
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics,
    }


def main(argv=None):
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m perfbench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--reps", type=int, default=None,
                        help="untraced repetitions per workload (default 5)")
    budget.add_argument("--seconds", type=float, default=None,
                        help="time budget for the untraced repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", default=None, help="write all metrics as JSON")
    args = parser.parse_args(argv)
    if args.seconds is None and args.reps is None:
        args.reps = 5
    if (args.reps is not None and args.reps < 1) or (args.seconds is not None
                                                      and args.seconds <= 0):
        parser.error("--reps must be at least 1 and --seconds positive")

    workloads = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, reps=args.reps,
                                             seconds=args.seconds,
                                             trace=bool(args.trace))
            print_report(workload, args.seed, results[workload])
    except (RepError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "workloads": results}, handle, indent=1)
    print(json.dumps(result_line(results, spec, traced=bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
