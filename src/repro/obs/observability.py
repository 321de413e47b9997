"""The per-engine observability hub: metrics + tracer + flight recorder.

Every :class:`~repro.gpusim.engine.Engine` owns one
:class:`Observability` (pass ``observability=Observability(enabled=False)``
to opt out, as the overhead benchmark's control arm does).  Instrumentation
sites throughout the tree reach it as ``engine.obs`` / ``cluster.obs`` and
guard on ``obs.enabled`` — a disabled hub still exposes the full object
graph so call sites need no branching beyond that one check.

The hub also owns the **calibration log**: every completed collective
contributes a (predicted cost, measured virtual time) sample, and
:meth:`Observability.calibration_report` aggregates cost-model error per
(backend, algorithm, kind, size, group size) — the data behind the
``selector_calibration`` section of ``BENCH_scale.json``.
"""

from collections import deque
from statistics import fmean

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import (
    DEFAULT_EVENT_CAPACITY,
    DEFAULT_SPAN_CAPACITY,
    FlightRecorder,
)
from repro.obs.spans import SpanTracer

#: Auto-dumps retained per run (deadlocks / recoveries / fuzzer failures).
MAX_DUMPS = 8

#: Calibration samples retained (bounded like everything else here).
MAX_CALIBRATION_SAMPLES = 4096


class Observability:
    def __init__(self, enabled=True,
                 event_capacity=DEFAULT_EVENT_CAPACITY,
                 span_capacity=DEFAULT_SPAN_CAPACITY):
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.recorder = FlightRecorder(event_capacity, span_capacity)
        self.tracer = SpanTracer(self.recorder)
        self.calibration = deque(maxlen=MAX_CALIBRATION_SAMPLES)
        self.dumps = []
        #: Time-attribution log (:class:`~repro.obs.analysis.AnalysisLog`),
        #: ``None`` until :meth:`enable_analysis` opts a run in.  Kept off by
        #: default: attribution traces every executed primitive, which the
        #: <10% overhead gate does not budget for.
        self.analysis = None
        if enabled:
            # Bound ``__len__`` methods, not closures over the hub: a hub
            # referring to itself would outlive its run until the cyclic
            # collector found it.
            registry = self.metrics
            registry.gauge_fn("flight_recorder_events", self.recorder.ring.__len__)
            registry.gauge_fn("flight_recorder_spans", self.recorder.spans.__len__)
            registry.gauge_fn("flight_recorder_dumps", self.dumps.__len__)

    # -- time attribution ---------------------------------------------------

    def enable_analysis(self):
        """Opt this run into critical-path time attribution.

        Must be called before collectives execute: executors built afterwards
        get per-primitive traces, registered with ``self.analysis``.  Returns
        the :class:`~repro.obs.analysis.AnalysisLog`.
        """
        if self.analysis is None:
            from repro.obs.analysis import AnalysisLog

            self.analysis = AnalysisLog()
        return self.analysis

    # -- collectives --------------------------------------------------------

    def record_collective(self, backend, algorithm, kind, nbytes, group_size,
                          measured_us, predicted_us=None,
                          predicted_breakdown=None):
        """A collective invocation fully completed: histogram + calibration."""
        self.metrics.counter("collective_invocations").inc()
        self.metrics.histogram(
            "collective_latency_us",
            labels={"backend": backend, "algorithm": algorithm},
        ).observe(measured_us)
        if predicted_us is not None:
            self.calibration.append({
                "backend": backend, "algorithm": algorithm, "kind": kind,
                "nbytes": nbytes, "group_size": group_size,
                "predicted_us": predicted_us, "measured_us": measured_us,
                "predicted_breakdown": predicted_breakdown,
            })

    def calibration_report(self):
        """Aggregate predicted-vs-measured per (backend, algo, kind, size).

        When time attribution ran (:meth:`enable_analysis` +
        :func:`repro.obs.analysis.analyze_run`), each cell additionally
        carries the mean *measured* bucket decomposition, the cost model's
        *predicted* decomposition, and ``mispredicted_bucket`` — the bucket
        with the largest absolute predicted-vs-measured gap, i.e. which term
        of the cost model the error lives in.
        """
        measured_buckets = {}
        if self.analysis is not None and self.analysis.results:
            for inv in self.analysis.results.get("invocations") or ():
                key = (inv["backend"], inv["algorithm"], inv["kind"],
                       inv["nbytes"], inv["group_size"])
                measured_buckets.setdefault(key, []).append(inv["buckets"])
        groups = {}
        for sample in self.calibration:
            key = (sample["backend"], sample["algorithm"], sample["kind"],
                   sample["nbytes"], sample["group_size"])
            groups.setdefault(key, []).append(sample)
        rows = []
        for key in sorted(groups):
            samples = groups[key]
            predicted = fmean(s["predicted_us"] for s in samples)
            measured = fmean(s["measured_us"] for s in samples)
            row = {
                "backend": key[0], "algorithm": key[1], "kind": key[2],
                "nbytes": key[3], "group_size": key[4],
                "samples": len(samples),
                "predicted_cost_us": predicted,
                "measured_cost_us": measured,
                "relative_error": ((measured - predicted) / measured
                                   if measured else None),
            }
            buckets = measured_buckets.get(key)
            if buckets:
                mean_measured = {
                    name: fmean(b[name] for b in buckets)
                    for name in buckets[0]
                }
                breakdowns = [s["predicted_breakdown"] for s in samples
                              if s.get("predicted_breakdown")]
                mean_predicted = {}
                if breakdowns:
                    for name in breakdowns[0]:
                        mean_predicted[name] = fmean(
                            b.get(name, 0.0) for b in breakdowns)
                gaps = {
                    name: mean_measured[name] - mean_predicted.get(name, 0.0)
                    for name in mean_measured if name != "residual_us"
                }
                worst = max(gaps, key=lambda name: abs(gaps[name]))
                row["measured_buckets"] = mean_measured
                row["predicted_buckets"] = mean_predicted
                row["mispredicted_bucket"] = worst
                row["mispredicted_gap_us"] = gaps[worst]
            rows.append(row)
        return rows

    # -- flight-recorder dumps ----------------------------------------------

    def dump(self, reason, context=None):
        """Serialize the recorder's current state (no side effects)."""
        return self.recorder.dump(
            reason,
            open_spans=self.tracer.open_spans(),
            context=context,
            metrics=self.metrics.snapshot(),
        )

    def auto_dump(self, reason, context=None):
        """Take a dump and retain it (deadlock / recovery / fuzzer hooks)."""
        dumped = self.dump(reason, context=context)
        self.dumps.append(dumped)
        del self.dumps[:-MAX_DUMPS]
        return dumped
