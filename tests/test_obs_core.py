"""The unified observability layer: metrics, spans, flight recorder, reports.

Covers the contracts the rest of the tree relies on:

* the metrics registry (counters/gauges/histograms/lazy gauge callbacks) and
  both exporters (JSON snapshot, Prometheus text);
* the bounded flight recorder and its auto-dump on engine deadlock — the
  dump must name the wait-for cycle's actors;
* collective spans and calibration samples recorded by a real DFCCL run,
  and the span contract every backend shares (one emission site);
* the ``perf_report`` / ``completion_info`` / ``diagnostics`` field contract
  across all three ``repro.api`` backends;
* the ``python -m repro.obs.report`` CLI.
"""

import json

import pytest

from repro.api import make_backend, wait_all
from repro.gpusim import HostProgram, build_cluster
from repro.gpusim.engine import Actor, Engine, StepResult
from repro.obs import METRIC_NAMES, MetricsRegistry, Observability


def _run_all_reduce(backend_name, ranks=4, nbytes=1 << 20, iterations=2,
                    observability=None, first_rank=0, job=None):
    """One small traced all-reduce workload over global ranks
    ``first_rank..first_rank+ranks-1``; returns (cluster, backend, group,
    works_by_rank)."""
    cluster = build_cluster("single-3090", observability=observability)
    backend = make_backend(backend_name, cluster, chunk_bytes=128 << 10,
                           algorithm="ring")
    group = backend.new_group(list(range(first_rank, first_rank + ranks)),
                              job=job)
    works_by_rank = {}
    for rank in group.ranks:
        works = [group.all_reduce(rank, nbytes // 4, key=f"ar{i}")
                 for i in range(iterations)]
        works_by_rank[rank] = works
        ops = [work.submit_op() for work in works]
        ops.extend(wait_all(works))
        ops.extend(backend.finalize_ops(rank))
        cluster.add_host(rank, HostProgram(ops))
    cluster.run()
    return cluster, backend, group, works_by_rank


class TestMetricsRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("engine_deadlocks").inc()
        registry.counter("engine_deadlocks").inc(2)
        registry.gauge("engine_steps").set(41)
        registry.gauge_fn("pool_active", lambda: 7)
        histogram = registry.histogram("collective_latency_us",
                                       labels={"backend": "dfccl",
                                               "algorithm": "ring"})
        histogram.observe(3.0)
        histogram.observe(300.0)

        snap = registry.snapshot()
        assert snap["engine_deadlocks"] == 3
        assert snap["engine_steps"] == 41
        assert snap["pool_active"] == 7
        hist = snap['collective_latency_us{algorithm="ring",backend="dfccl"}']
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(303.0)
        assert hist["min"] == 3.0 and hist["max"] == 300.0
        # Buckets are cumulative and end with +Inf == count.
        assert hist["buckets"][-1] == ["+Inf", 2]
        cumulative = [count for _, count in hist["buckets"]]
        assert cumulative == sorted(cumulative)

    def test_labels_are_order_insensitive(self):
        registry = MetricsRegistry()
        registry.counter("link_bytes_total", labels={"src": "a", "dst": "b"}).inc()
        registry.counter("link_bytes_total", labels={"dst": "b", "src": "a"}).inc()
        assert registry.snapshot() == {
            'link_bytes_total{dst="b",src="a"}': 2}

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("engine_deadlocks").inc()
        registry.histogram("collective_latency_us",
                           labels={"backend": "mpi",
                                   "algorithm": "host-staged-ring"}).observe(42.0)
        text = registry.to_prometheus_text()
        assert "# HELP engine_deadlocks" in text
        assert "# TYPE engine_deadlocks counter" in text
        assert "engine_deadlocks 1" in text
        assert "# TYPE collective_latency_us histogram" in text
        assert 'le="+Inf"' in text
        assert "collective_latency_us_count" in text
        assert "collective_latency_us_sum" in text

    def test_every_declared_metric_has_kind_and_help(self):
        assert len(METRIC_NAMES) >= 30
        for name, info in METRIC_NAMES.items():
            assert info["kind"] in ("counter", "gauge", "histogram"), name
            assert info["help"], name


class TestFlightRecorder:
    def test_ring_and_span_buffers_are_bounded(self):
        obs = Observability(event_capacity=16, span_capacity=4)
        for i in range(100):
            obs.recorder.record_event(float(i), "test", f"e{i}")
            obs.tracer.record(f"s{i}", "test", float(i), float(i) + 1.0)
        assert len(obs.recorder.ring) <= 16
        assert len(obs.recorder.spans) == 4
        # The newest entries survive, the oldest are evicted.
        assert obs.recorder.spans[-1].name == "s99"

    def test_step_and_marker_events_are_distinguished(self):
        engine = Engine()

        class _OneShot(Actor):
            def step(self):
                self.clock.advance(1.0)
                return StepResult.done()

        engine.add_actor(_OneShot("worker"))
        engine.run()
        engine.obs.recorder.record_event(5.0, "fault", "killed:worker")
        steps = engine.obs.recorder.step_events()
        markers = engine.obs.recorder.marker_events()
        assert steps and all(len(event) == 4 for event in steps)
        assert markers == [("event", 5.0, "fault", "killed:worker", None)]

    def test_dump_on_engine_deadlock_names_the_cycle(self):
        engine = Engine(deadlock_mode="record")

        class _Blocked(Actor):
            def __init__(self, name, wait_key):
                super().__init__(name)
                self.wait_key = wait_key

            def step(self):
                return StepResult.blocked([self.wait_key])

        # a waits on a key only b would signal, and vice versa: a 2-cycle.
        engine.add_actor(_Blocked("actor-a", ("turn", "b")))
        engine.add_actor(_Blocked("actor-b", ("turn", "a")))
        engine.run()

        assert engine.deadlock_report is not None
        (dump,) = engine.obs.dumps
        assert dump["reason"] == "deadlock"
        assert set(dump["context"]["blocked_actors"]) == {"actor-a", "actor-b"}
        assert set(dump["context"]["wait_graph"]) == {"actor-a", "actor-b"}
        assert engine.obs.metrics.snapshot()["engine_deadlocks"] == 1
        assert dump["metrics"]["engine_steps"] > 0

    def test_disabled_observability_records_nothing(self):
        cluster, *_ = _run_all_reduce(
            "dfccl", observability=Observability(enabled=False))
        obs = cluster.engine.obs
        assert not obs.enabled
        assert len(obs.recorder.ring) == 0
        assert len(obs.recorder.spans) == 0
        assert not obs.calibration
        assert obs.metrics.snapshot() == {}


class TestCollectiveSpans:
    def test_dfccl_run_records_spans_and_calibration(self):
        cluster, backend, group, works_by_rank = _run_all_reduce("dfccl")
        obs = cluster.engine.obs
        spans = [span for span in obs.recorder.spans
                 if span.category == "collective"]
        # One span per (rank, invocation): 4 ranks x 2 invocations.
        assert len(spans) == 8
        for span in spans:
            assert span.end_us is not None and span.duration_us >= 0.0
            assert span.attrs["algorithm"] == "ring"
            assert span.attrs["predicted_cost_us"] > 0.0
        samples = list(obs.calibration)
        assert len(samples) == 2
        for sample in samples:
            assert sample["backend"] == "dfccl"
            assert sample["predicted_us"] > 0.0
            assert sample["measured_us"] > 0.0
        report = obs.calibration_report()
        assert len(report) == 1
        assert report[0]["samples"] == 2
        assert report[0]["relative_error"] is not None

    @pytest.mark.parametrize("backend_name", ["dfccl", "nccl", "mpi"])
    def test_span_contract(self, backend_name):
        """Exactly one closed span per (rank, invocation) on every backend,
        on the rank's global track, under the group's job, spanning the
        Work's start to its completion."""
        cluster, _, group, works_by_rank = _run_all_reduce(
            backend_name, first_rank=4, job="job-a")
        obs = cluster.engine.obs
        assert not [span for span in obs.tracer.open_spans()
                    if span.category == "collective"]
        spans_by_track = {}
        for span in obs.recorder.spans:
            if span.category == "collective":
                spans_by_track.setdefault(span.track, []).append(span)
        assert sorted(spans_by_track) == [f"rank{rank}" for rank in group.ranks]
        for rank, works in works_by_rank.items():
            spans = spans_by_track[f"rank{rank}"]
            assert sorted((span.start_us, span.end_us) for span in spans) == \
                sorted((work.started_at_us, work.completion_info().time_us)
                       for work in works)
            for span in spans:
                assert span.job == "job-a"
                assert span.attrs["algorithm"]
                assert span.attrs["predicted_cost_us"] > 0.0

    def test_calibration_report_covers_every_backend(self):
        for backend_name in ("dfccl", "nccl", "mpi"):
            cluster, *_ = _run_all_reduce(backend_name)
            report = cluster.engine.obs.calibration_report()
            assert report, f"{backend_name} must record calibration samples"
            assert report[0]["backend"] == backend_name


class TestBackendReportingContract:
    """Field contracts satellites of the api layer depend on."""

    REQUIRED_PERF_KEYS = {"algorithm", "latency_us", "core_time_us",
                          "preemptions", "predicted_cost_us"}

    @pytest.mark.parametrize("backend_name", ["dfccl", "nccl", "mpi"])
    def test_perf_report_fields(self, backend_name):
        _, backend, group, works_by_rank = _run_all_reduce(backend_name)
        report = backend.perf_report(works_by_rank[group.ranks[0]])
        assert self.REQUIRED_PERF_KEYS <= set(report)
        assert report["latency_us"] > 0.0
        assert report["predicted_cost_us"] > 0.0

    @pytest.mark.parametrize("backend_name", ["dfccl", "nccl", "mpi"])
    def test_completion_info_fields(self, backend_name):
        _, backend, group, works_by_rank = _run_all_reduce(backend_name)
        for rank, works in works_by_rank.items():
            for work in works:
                info = work.completion_info()
                assert info is not None
                assert tuple(info.member_ranks) == tuple(group.ranks)
                assert info.time_us is not None and info.time_us > 0.0
                generation, members = info.signature
                assert generation == 0
                assert len(members) == len(group.ranks)

    @pytest.mark.parametrize("backend_name", ["dfccl", "nccl", "mpi"])
    def test_diagnostics_nonempty_with_metrics(self, backend_name):
        cluster, backend, *_ = _run_all_reduce(backend_name)
        diag = backend.diagnostics()
        assert diag, f"{backend_name} diagnostics must not be empty"
        assert "metrics" in diag
        assert diag["metrics"]["engine_steps"] > 0
        assert diag["metrics"]["collective_invocations"] == 2

    def test_mpi_diagnostics_report_rendezvous_counters(self):
        _, backend, *_ = _run_all_reduce("mpi")
        diag = backend.diagnostics()
        assert diag["backend"] == "mpi"
        assert diag["host_staged_ops"] == 2
        assert diag["rendezvous_completed"] == 2
        assert diag["rendezvous_pending"] == 0
        assert diag["metrics"]["mpi_host_staged_ops"] == 2

    def test_link_metrics_fold_into_registry_at_diagnostics_time(self):
        cluster, backend, *_ = _run_all_reduce("dfccl")
        diag = backend.diagnostics()
        link_keys = [key for key in diag["metrics"]
                     if key.startswith("link_bytes_total")]
        assert link_keys, "per-link byte gauges expected after diagnostics()"
        assert all(diag["metrics"][key] > 0 for key in link_keys)
        busy = [key for key in diag["metrics"]
                if key.startswith("link_busy_us")]
        assert busy and all(diag["metrics"][key] > 0 for key in busy)


class TestRecoveryObservability:
    def test_recovery_episode_dumps_and_counts(self):
        from repro.core import DfcclConfig
        from repro.faults.injector import install_fault_plan
        from repro.faults.plan import FaultPlan

        cluster = build_cluster("single-3090")
        config = DfcclConfig(recovery_enabled=True)
        backend = make_backend("dfccl", cluster, config=config)
        group = backend.new_group([0, 1, 2, 3])
        install_fault_plan(cluster,
                           FaultPlan("crash").add_crash(2, at_us=30.0))
        cluster.add_hosts([
            HostProgram(group.all_reduce(rank, count=1 << 16).ops()
                        + backend.finalize_ops(rank))
            for rank in group.ranks
        ])
        cluster.run()

        obs = cluster.engine.obs
        snap = obs.metrics.snapshot()
        assert snap["recovery_episodes"] >= 1
        assert snap["engine_actors_killed"] >= 1
        recovery_dumps = [dump for dump in obs.dumps
                          if dump["reason"] == "recovery"]
        assert recovery_dumps
        context = recovery_dumps[0]["context"]
        assert 2 in context["failed_ranks"]
        assert context["invocations_rerun"] >= 1
        recovery_spans = [span for span in obs.recorder.spans
                          if span.category == "recovery"]
        assert recovery_spans


class TestReportCli:
    def test_cli_writes_json_and_prometheus(self, tmp_path, capsys):
        from repro.obs.report import main

        json_path = tmp_path / "obs.json"
        prom_path = tmp_path / "obs.prom"
        exit_code = main(["--ranks", "4", "--iterations", "1",
                          "--json", str(json_path),
                          "--prometheus", str(prom_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "selector calibration" in out
        document = json.loads(json_path.read_text())
        assert document["metrics"]["collective_invocations"] == 1
        assert document["calibration"]
        assert "# TYPE engine_steps gauge" in prom_path.read_text()


class TestOneEmissionSite:
    def test_only_collective_run_emits_collective_telemetry(self):
        """``CollectiveRun`` is the one place a collective span is opened or
        a calibration sample recorded, and the analysis layer reads the run
        record instead of probing backend shapes."""
        import pathlib
        import re

        root = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        emission = re.compile(
            r"(?<!def )record_collective\(|"
            r"\.(?:begin|record)\([^)]*?[\"']collective[\"']", re.DOTALL)
        offenders = [str(path.relative_to(root)) for path in root.rglob("*.py")
                     if emission.search(path.read_text())]
        assert offenders == ["collectives/plan.py"]
        assert "getattr(owner" not in (root / "obs" / "analysis.py").read_text()
