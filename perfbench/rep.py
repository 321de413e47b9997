"""One repetition of one workload, in this (fresh) interpreter.

``python -m perfbench.rep WORKLOAD SEED [--trace]`` imports everything first,
then runs the workload under :class:`perfbench.probe.Probe` and prints the
repetition's record as one JSON line.  :mod:`perfbench.run` starts one such
process per repetition, one at a time, so imports are never timed and no
repetition inherits another's caches.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

from perfbench.probe import Probe
from perfbench.workloads import WORKLOADS
from repro.bench.scale_experiments import machine_calibration_factor

#: Calibration loops run just before and just after the timed region.  The
#: fastest of ten ~25 ms loops reads the host's speed through short hiccups
#: but still sees the minutes-long slow stretches of a shared host.
CALIBRATION_REPEATS = 10


def measure(workload, seed, traced=False):
    """Run ``workload(seed, probe)`` once in this process; return its record.

    Times in the record are raw host seconds.  ``calibration_ops_per_s`` is
    the host's pure-Python speed around the timed region (the mean of one
    reading before and one after), which :mod:`perfbench.run` uses to express
    host times at a reference speed.
    """
    speed_before = machine_calibration_factor(repeats=CALIBRATION_REPEATS)
    with Probe(traced) as probe:
        start = time.perf_counter()
        tally = workload(seed, probe)
        wall_s = time.perf_counter() - start
    speed_after = machine_calibration_factor(repeats=CALIBRATION_REPEATS)
    record = {
        "traced": traced,
        "wall_s": wall_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "details": tally.details,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calibration_ops_per_s": (speed_before + speed_after) / 2,
        **probe.summary(),
    }
    if traced:
        record["per_layer"] = probe.per_layer()
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m perfbench.rep")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    record = measure(WORKLOADS[args.workload], args.seed, traced=args.trace)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
