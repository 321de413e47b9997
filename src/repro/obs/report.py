"""Run-summary CLI: ``python -m repro.obs.report``.

Runs a small traced workload (an all-reduce over a configurable rank count
and backend) and renders what the observability layer collected: the metrics
snapshot, span counts by category, the predicted-vs-measured calibration
table, and any flight-recorder dumps.  ``--json`` / ``--prometheus`` write
the machine-readable exports alongside.

``render_summary`` is also usable directly against any
:class:`~repro.obs.Observability` (e.g. from a bench driver or a test).
"""

import argparse
import json
from collections import Counter as TallyCounter


def render_summary(obs, title="repro run summary"):
    """Human-readable multi-line summary of one observability hub."""
    lines = [title, "=" * len(title), "", "metrics:"]
    snapshot = obs.metrics.snapshot()
    for key in sorted(snapshot):
        value = snapshot[key]
        if isinstance(value, dict):
            count = value["count"]
            mean = value["sum"] / count if count else 0.0
            lines.append(f"  {key}: count={count} mean={mean:.1f}us "
                         f"max={value['max']:.1f}us")
        else:
            lines.append(f"  {key}: {value:g}")
    categories = TallyCounter(span.category for span in obs.recorder.spans)
    lines += ["", "spans:"]
    for category in sorted(categories):
        lines.append(f"  {category}: {categories[category]}")
    if not categories:
        lines.append("  (none recorded)")
    calibration = obs.calibration_report()
    lines += ["", "selector calibration (predicted vs measured):"]
    if calibration:
        for row in calibration:
            error = row["relative_error"]
            error_text = f"{error:+.0%}" if error is not None else "n/a"
            lines.append(
                f"  {row['backend']}/{row['algorithm']} {row['kind']} "
                f"{row['nbytes']}B x{row['group_size']}: "
                f"predicted {row['predicted_cost_us']:.0f}us, "
                f"measured {row['measured_cost_us']:.0f}us ({error_text})")
    else:
        lines.append("  (no samples)")
    lines += ["", f"flight-recorder dumps: {len(obs.dumps)}"]
    for dumped in obs.dumps:
        lines.append(f"  - {dumped['reason']}")
    return "\n".join(lines)


def demo_run(ranks=8, backend="dfccl", nbytes=1 << 20, iterations=2,
             topology=None, analyze=False):
    """Run a traced all-reduce workload; returns (cluster, backend).

    ``analyze=True`` opts the run into critical-path time attribution
    (``obs.enable_analysis()`` before any collective executes).
    """
    from repro.testing import collective_program, install_program, topology_for_world

    program = collective_program(topology or topology_for_world(ranks), ranks,
                                 nbytes=nbytes, num_collectives=iterations)
    cluster, backend_obj, _ = install_program(program, backend)
    if analyze:
        cluster.engine.obs.enable_analysis()
    cluster.run()
    backend_obj.diagnostics()  # folds link metrics into the registry
    return cluster, backend_obj


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Run a traced all-reduce and render the run summary.")
    parser.add_argument("--ranks", type=int, default=8)
    parser.add_argument("--backend", default="dfccl")
    parser.add_argument("--nbytes", type=int, default=1 << 20)
    parser.add_argument("--iterations", type=int, default=2)
    parser.add_argument("--topology", default=None)
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write metrics + calibration as JSON")
    parser.add_argument("--prometheus", dest="prom_path", default=None,
                        help="write the Prometheus text exposition")
    parser.add_argument("--analyze", action="store_true",
                        help="critical-path time attribution: per-bucket "
                             "table per invocation; exits 1 if any "
                             "decomposition misses conservation by >1%%")
    parser.add_argument("--trace", dest="trace_path", default=None,
                        help="write a chrome trace (with critical-path flow "
                             "arrows under --analyze)")
    args = parser.parse_args(argv)

    cluster, backend_obj = demo_run(
        ranks=args.ranks, backend=args.backend, nbytes=args.nbytes,
        iterations=args.iterations, topology=args.topology,
        analyze=args.analyze)
    obs = cluster.engine.obs
    title = (f"{args.backend} all-reduce x{args.iterations} "
             f"({args.ranks} ranks, {args.nbytes} bytes)")
    print(render_summary(obs, title=title))
    conserved = True
    flows = None
    if args.analyze:
        from repro.obs.analysis import (
            analyze_run,
            critical_path_flows,
            render_analysis,
        )
        from repro.obs.links import link_utilization_timeline

        results = analyze_run(obs)
        print()
        print(render_analysis(results))
        timeline = link_utilization_timeline(obs)
        busiest = max(
            (window["utilization"], link["src"], link["dst"])
            for link in timeline["links"] for window in link["windows"]
        ) if timeline["links"] else None
        if busiest is not None:
            print(f"\nlink timeline: {len(timeline['links'])} links in "
                  f"{timeline['window_us']:.0f}us windows; busiest "
                  f"{busiest[1]}->{busiest[2]} at {busiest[0]:.2f} "
                  "utilization")
        flows = critical_path_flows(results)
        conserved = all(inv["conservation_error"] <= 0.01
                        for inv in results["invocations"])
        if not conserved:
            print("\nCONSERVATION VIOLATED: attributed buckets stray >1% "
                  "from measured virtual time")
    if args.trace_path:
        from repro.obs.trace import write_chrome_trace

        count = write_chrome_trace(obs, args.trace_path, flows=flows)
        print(f"\nwrote {args.trace_path} ({count} events)")
    if args.json_path:
        document = {"metrics": obs.metrics.snapshot(),
                    "calibration": obs.calibration_report()}
        if args.analyze:
            document["analysis"] = obs.analysis.results
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True, default=str)
        print(f"\nwrote {args.json_path}")
    if args.prom_path:
        with open(args.prom_path, "w", encoding="utf-8") as handle:
            handle.write(obs.metrics.to_prometheus_text())
        print(f"wrote {args.prom_path}")
    return 0 if conserved else 1


if __name__ == "__main__":
    raise SystemExit(main())
