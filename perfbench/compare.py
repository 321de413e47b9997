"""Compare two result files written by ``python -m perfbench --out``.

    python -m perfbench.compare A.json B.json

For every (workload, end-to-end metric) pair in both files, print both
medians with their interquartile ranges and a verdict against the metric's
bound in BENCHMARK.json, reading A as the parent and B as the change:

``unresolved``  the spread (interquartile range / median) of either side is
                wider than the bound, so the two cannot be told apart;
``worse``       B's median is worse than A's by more than the bound;
``better``      B's median is better than A's by more than either side's
                interquartile range;
``unchanged``   otherwise.

``sim_us`` and ``fail_ratio`` are exact: any change in ``sim_us`` is worse,
and ``fail_ratio`` is compared with a bound of zero.  The exit status is 1
when any pair is worse.
"""

from __future__ import annotations

import argparse
import json
import sys

from perfbench.run import load_spec

#: Metrics reported beside BENCHMARK.json's bounded ones, compared exactly:
#: name -> direction ("equal" means any change is worse).
EXACT = {"sim_us": "equal", "fail_ratio": "lower"}


def spread(entry):
    """Interquartile range as a share of the median."""
    if not entry["median"]:
        return 0.0
    return (entry["p75"] - entry["p25"]) / abs(entry["median"])


def verdict(a, b, better, bound):
    """The verdict for parent ``a`` and change ``b`` (quartile entries)."""
    if better == "equal":
        return "unchanged" if a["median"] == b["median"] else "worse"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    # Positive when B is worse than A, in the metric's own units.
    worse_by = b["median"] - a["median"]
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound * abs(a["median"]):
        return "worse"
    if -worse_by > max(a["p75"] - a["p25"], b["p75"] - b["p25"]):
        return "better"
    return "unchanged"


def compare(a, b, spec):
    """Rows of (workload, metric, unit, A entry, B entry, bound, verdict)."""
    directions = {metric["name"]: (metric["better"], metric["bound"])
                  for metric in spec["end_to_end"]}
    directions.update({name: (better, 0.0) for name, better in EXACT.items()})
    rows = []
    for workload, result_a in a["workloads"].items():
        result_b = b["workloads"].get(workload)
        if result_b is None:
            continue
        for metric, (better, bound) in directions.items():
            entry_a, entry_b = result_a["e2e"][metric], result_b["e2e"][metric]
            rows.append((workload, metric, entry_a["unit"], entry_a, entry_b, bound,
                         verdict(entry_a, entry_b, better, bound)))
    return rows


def _cell(entry):
    if entry["p25"] == entry["p75"] == entry["median"]:
        return f"{entry['median']:.10g}"
    return f"{entry['median']:.6g} [{entry['p25']:.4g}, {entry['p75']:.4g}]"


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m perfbench.compare",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="parent result file")
    parser.add_argument("b", help="change result file")
    args = parser.parse_args(argv)
    with open(args.a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(args.b, encoding="utf-8") as handle:
        b = json.load(handle)
    rows = compare(a, b, load_spec())
    print(f"{'workload':<14} {'metric':<17} {'A median [p25, p75]':<34} "
          f"{'B median [p25, p75]':<34} {'change':>8} {'bound':>6}  verdict")
    for workload, metric, unit, entry_a, entry_b, bound, outcome in rows:
        change = ((entry_b["median"] - entry_a["median"]) / abs(entry_a["median"])
                  if entry_a["median"] else 0.0)
        print(f"{workload:<14} {metric:<17} {_cell(entry_a) + ' ' + unit:<34} "
              f"{_cell(entry_b) + ' ' + unit:<34} {change:>+8.1%} {bound:>6.0%}  "
              f"{outcome}")
    # Host speed at measurement time.  Host times are already scaled by it;
    # a wide gap still flags runs taken under different host conditions.
    for workload, result_a in a["workloads"].items():
        if workload in b["workloads"]:
            print(f"{workload}: host calibration A "
                  f"{result_a['calibration_ops_per_s'] / 1e6:.2f}, B "
                  f"{b['workloads'][workload]['calibration_ops_per_s'] / 1e6:.2f} Mops/s")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
