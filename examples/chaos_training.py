#!/usr/bin/env python3
"""Chaos engineering for collectives: faults injected into a live workload.

Builds the dual-server NVLink testbed, crashes a rank mid-all-reduce, and
shows the two backends' behaviour side by side:

* the NCCL-style baseline deadlocks — the wait-for cycle through the dead
  rank is extracted from the engine's deadlock report;
* DFCCL detects the crash via CQE timeout, invalidates and rebuilds the
  communicators, shrinks the group, rebinds the survivors' running daemon
  task entries to the shrunken sequence, and the survivors finish with
  byte-identical reductions.

Each run is a ``repro.testing`` program replayed by ``replay_program``: the
results are its ``ReplayResult`` (per-work ``records``, the backend's
``diagnostics``, the deadlock ``analysis``).

Then replays the canned chaos plans (crashes, link flaps, stragglers, a mixed
seeded storm) and prints the goodput-under-chaos table.

Run with:  python examples/chaos_training.py
"""

from repro.bench import format_table, goodput_under_chaos, measure_recovery
from repro.faults.scenarios import chaos_rank_crash_comparison


def main():
    print("=== Rank crash mid-all-reduce (dual-3090-nvlink, 16 ranks) ===\n")
    result = chaos_rank_crash_comparison()
    nccl, dfccl = result["nccl"], result["dfccl"]

    print(f"fault plan: {result['plan']['events']}")
    print(f"\nNCCL baseline: {nccl.outcome} at t={nccl.time_us:.0f}us")
    print(f"  wait-for cycle: {nccl.analysis.cycle}")
    print(f"  blocked actors: {len(nccl.analysis.blocked_actors)}")

    print(f"\nDFCCL: {dfccl.outcome} at t={dfccl.time_us:.0f}us")
    for event in dfccl.diagnostics["recovery"]["events"]:
        print(f"  recovered coll {event['coll_id']}: ranks {event['failed_ranks']} "
              f"out, survivors {event['survivor_ranks']}, "
              f"detection latency {event['detection_latency_us']:.0f}us")
    # One reduced value per invocation across the survivors.
    reduced = {}
    for record in dfccl.records:
        if record.done and record.rank in dfccl.survivor_ranks:
            reduced.setdefault(record.logical(), set()).add(record.reduced)
    identical = all(len(values) == 1 for values in reduced.values())
    print(f"  byte-identical survivor reductions: {identical} "
          f"({len(reduced)} invocations checked)")

    print("\n=== Recovery-time breakdown (single crash) ===\n")
    row = measure_recovery("crash")
    print(f"  detection latency : {row['detection_latency_us']:.0f} us")
    print(f"  recovery time     : {row['recovery_time_us']:.0f} us")
    print(f"  total run         : {row['total_time_us']:.0f} us")

    print("\n=== Goodput under chaos ===\n")
    report = goodput_under_chaos()
    print(f"healthy goodput: {report['healthy_goodput_per_ms']:.1f} collectives/ms\n")
    print(format_table(
        report["rows"],
        columns=["plan", "outcome", "nccl_outcome", "recoveries",
                 "survivor_completions", "goodput_per_ms", "relative_goodput"],
        title="DFCCL goodput under seeded fault plans (baseline outcome alongside)",
        float_format="{:.2f}",
    ))
    print("\nCrashes wedge the dedicated-kernel baseline permanently; DFCCL's")
    print("preemptible daemon plus elastic group shrink keeps the survivors")
    print("training at a fraction of healthy goodput instead of zero.")


if __name__ == "__main__":
    main()
