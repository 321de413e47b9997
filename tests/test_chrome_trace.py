"""Chrome-trace export of engine events (``chrome://tracing`` JSON).

The exporter under test is the observability-based one
(:mod:`repro.obs.trace`), which reads the always-on flight recorder.  The
legacy list-of-tuples exporter and the ``Engine(trace=[...])`` kwarg were
removed after their deprecation cycle, and ``repro.core.profiler``, which
held the exporter, is gone.
"""

import json

import pytest

from repro.api import make_backend
from repro.gpusim import HostProgram, build_cluster
from repro.obs import chrome_trace_events, write_chrome_trace


def _traced_cluster():
    """A tiny DFCCL run; returns the cluster (flight recorder is always on)."""
    cluster = build_cluster("single-3090")
    backend = make_backend("dfccl", cluster)
    group = backend.new_group([0, 1])
    cluster.add_hosts([
        HostProgram(group.all_reduce(rank, count=1024).ops()
                    + backend.finalize_ops(rank))
        for rank in group.ranks
    ])
    cluster.run()
    return cluster


class TestChromeTraceExport:
    def test_events_have_trace_viewer_fields(self):
        cluster = _traced_cluster()
        assert cluster.engine.obs.recorder.ring, \
            "the flight recorder must capture step events always-on"
        events = chrome_trace_events(cluster.engine.obs)
        metadata = [event for event in events if event["ph"] == "M"]
        spans = [event for event in events if event["ph"] == "X"]
        assert any(event["name"] == "process_name" for event in metadata)
        thread_names = {event["args"]["name"] for event in metadata
                        if event["name"] == "thread_name"}
        # One thread row per engine actor: hosts, GPUs, daemon kernels.
        assert any(name.startswith("host-") for name in thread_names)
        assert any(name.startswith("dfccl-daemon") for name in thread_names)
        assert spans
        for event in spans:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert isinstance(event["tid"], int)

    def test_collective_span_tracks_present(self):
        cluster = _traced_cluster()
        events = chrome_trace_events(cluster.engine.obs)
        collective_spans = [event for event in events
                            if event["ph"] == "X"
                            and event.get("cat") == "collective"]
        # One span per rank of the single all-reduce, on a pid > 0 process.
        assert len(collective_spans) == 2
        assert all(event["pid"] >= 1 for event in collective_spans)
        counters = [event for event in events if event["ph"] == "C"]
        assert counters, "in-flight collective counter track expected"
        assert max(event["args"]["collectives"] for event in counters) >= 1

    def test_engine_step_slices_are_monotonic_per_thread(self):
        events = chrome_trace_events(_traced_cluster().engine.obs)
        by_tid = {}
        for event in events:
            if event["ph"] == "X" and event["pid"] == 0:
                by_tid.setdefault(event["tid"], []).append(event)
        for spans in by_tid.values():
            ends = [span["ts"] + span["dur"] for span in spans]
            assert ends == sorted(ends)

    def test_write_chrome_trace_file_is_loadable(self, tmp_path):
        cluster = _traced_cluster()
        path = tmp_path / "engine-trace.json"
        count = write_chrome_trace(cluster.engine.obs, path)
        assert count > 0
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert len(document["traceEvents"]) == count

    def test_write_accepts_open_file(self, tmp_path):
        cluster = _traced_cluster()
        path = tmp_path / "engine-trace.json"
        with open(path, "w", encoding="utf-8") as handle:
            write_chrome_trace(cluster.engine.obs, handle)
        assert json.loads(path.read_text())["traceEvents"]

    def test_multijob_trace_shows_both_tenants(self):
        from repro.bench import run_multijob

        result = run_multijob(backend="dfccl", seed=3, num_jobs=2,
                              deadline_us=4_000_000)
        assert result["summary"]["completed"] >= 1
        events = chrome_trace_events(result["obs"])
        job_processes = {event["args"]["name"] for event in events
                         if event.get("name") == "process_name"
                         and event["args"]["name"].startswith("job:")}
        assert len(job_processes) >= 2  # one span process per tenant


class TestLegacyProfilerRemoved:
    def test_legacy_exporter_is_gone(self):
        import importlib

        with pytest.raises(ImportError):
            importlib.import_module("repro.core.profiler")

    def test_engine_trace_kwarg_is_gone(self):
        import inspect

        from repro.gpusim.engine import Engine

        assert "trace" not in inspect.signature(Engine.__init__).parameters
