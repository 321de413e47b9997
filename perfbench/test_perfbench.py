"""Fast checks of the benchmark itself: ``pytest perfbench -q``."""

from __future__ import annotations

import io
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from perfbench import compare, probe, rep, run
from perfbench.workloads import WORKLOADS, Tally
from repro.bench.scale_experiments import run_scale_point


def _function_in(package, name):
    """A function ``name(callback)`` whose code lives in ``repro/<package>/``."""
    filename = os.path.join(probe.REPRO_DIR, package, "synthetic.py")
    namespace = {}
    exec(compile(f"def {name}(callback):\n    return callback()\n", filename, "exec"),
         namespace)
    return namespace[name]


def _capture_frame():
    return sys._getframe()


class TestSampler:
    def test_attributes_innermost_repro_frame(self):
        sampler = probe.Sampler()
        in_gpusim = _function_in("gpusim", "outer")
        in_collectives = _function_in("collectives", "inner")
        # test code -> gpusim -> collectives -> non-repro leaf
        frame = in_gpusim(lambda: in_collectives(_capture_frame))
        assert sampler.layer_of(frame) == "collectives"
        assert sampler.layer_of(in_gpusim(_capture_frame)) == "gpusim"
        assert sampler.layer_of(_capture_frame()) == probe.OTHER

    def test_charges_time_since_previous_sample(self):
        sampler = probe.Sampler()
        frame = _function_in("core", "work")(_capture_frame)
        sampler._last = time.perf_counter() - 0.5
        sampler._on_signal(signal.SIGPROF, frame)
        assert sampler.samples == 1
        assert sampler.seconds["core"] == pytest.approx(0.5, abs=0.05)

    def test_totals_cover_the_sampled_interval(self):
        sampler = probe.Sampler()
        spin = _function_in("gpusim", "spin")

        def busy():
            deadline = time.process_time() + 0.2
            while time.process_time() < deadline:
                pass

        start = time.perf_counter()
        sampler.start()
        try:
            spin(busy)
        finally:
            sampler.stop()
        elapsed = time.perf_counter() - start
        assert sampler.samples > 0
        assert sampler.seconds["gpusim"] > 0
        assert sum(sampler.seconds.values()) == pytest.approx(elapsed, rel=0.05)
        assert signal.getsignal(signal.SIGPROF) is not sampler._on_signal


class TestPatches:
    def test_rebinds_every_copy_of_a_function_and_restores(self):
        import repro.collectives
        from repro.collectives import sequences
        from repro.core import registration
        from repro.ncclsim import ops

        original = sequences.generate_primitive_sequence
        wrapper = probe.Boundary().wrap(original)
        patches = probe.Patches()
        assert patches.rebind(original, wrapper) >= 4
        try:
            for module in (sequences, repro.collectives, registration, ops):
                assert module.generate_primitive_sequence is wrapper
        finally:
            patches.restore()
        for module in (sequences, repro.collectives, registration, ops):
            assert module.generate_primitive_sequence is original

    def test_rebinds_a_method_on_its_class(self):
        from repro.collectives.selector import AlgorithmSelector

        original = AlgorithmSelector.choose
        patches = probe.Patches()
        patches.rebind(original, probe.Boundary().wrap(original))
        assert AlgorithmSelector.choose is not original
        patches.restore()
        assert AlgorithmSelector.choose is original

    def test_unbound_object_is_an_error(self):
        with pytest.raises(LookupError):
            probe.Patches().rebind(lambda: None, lambda: None)

    def test_boundary_times_nested_calls_once(self):
        boundary = probe.Boundary()

        def countdown(n):
            return n if n == 0 else wrapped(n - 1)

        wrapped = boundary.wrap(countdown)
        start = time.perf_counter()
        wrapped(3)
        elapsed = time.perf_counter() - start
        assert boundary.calls == 4
        assert 0 < boundary.seconds <= elapsed


def _mini(seed, probe_):
    """16-rank stand-in for the scale workload: dfccl ring and nccl ring."""
    del seed, probe_
    tally = Tally()
    for backend in ("dfccl", "nccl"):
        row = run_scale_point(16, topology="flat", algorithm="ring", backend=backend)
        tally.record(32, row["completed"])
    return tally


def _mini_with_failure(seed, probe_):
    tally = _mini(seed, probe_)
    tally.record(1, False)
    return tally


@pytest.fixture(scope="module")
def mini_records():
    from repro.gpusim.engine import Engine

    run_method = Engine.run
    untraced = [rep.measure(_mini, 0) for _ in range(2)]
    traced = rep.measure(_mini, 0, traced=True)
    assert Engine.run is run_method  # the probe restored the engine
    return untraced, traced


class TestRepetitions:
    def test_traced_and_untraced_sim_us_equal(self, mini_records):
        untraced, traced = mini_records
        assert untraced[0]["sim_us"] > 0
        assert {record["sim_us"] for record in untraced} == {traced["sim_us"]}
        per_layer = traced["per_layer"]
        assert per_layer["api.collective_calls"] == 64
        assert per_layer["collectives.seqgen_calls"] == 64
        assert per_layer["gpusim.runs"] == 2
        assert traced["rank_collectives"] == 64
        assert traced["engines"] == 2 and len(traced["program_ms"]) == 2

    def test_forced_failing_unit_raises_fail_ratio(self, mini_records):
        untraced, _ = mini_records
        result = run.aggregate([rep.measure(_mini_with_failure, 0)] + untraced)
        assert result["failed"] == 1 and result["attempted"] == 3 * 64 + 1
        assert result["e2e"]["fail_ratio"]["median"] == pytest.approx(1 / 193)
        assert not result["correct"]

    def test_sim_us_mismatch_fails_every_unit(self, mini_records):
        untraced, traced = mini_records
        skewed = dict(traced, sim_us=traced["sim_us"] + 1.0)
        result = run.aggregate(untraced, skewed)
        assert not result["deterministic"]
        assert result["failed"] == result["attempted"]
        assert result["e2e"]["fail_ratio"]["median"] == 1.0

    def test_every_benchmark_metric_reported_with_unit(self, mini_records):
        untraced, traced = mini_records
        spec = run.load_spec()
        result = run.aggregate(untraced, traced)
        assert result["correct"]
        report = io.StringIO()
        run.print_report("mini", 0, result, out=report)
        for traced_mode, section in ((False, "end_to_end"), (True, "per_layer")):
            line = run.result_line({"mini": result}, spec, traced=traced_mode)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            expected = {metric["name"]: metric["unit"] for metric in spec[section]}
            assert {name: entry["unit"] for name, entry in line["metrics"].items()} \
                == expected
            for name in expected:
                assert name in report.getvalue()


def test_workloads_match_benchmark_json():
    spec = run.load_spec()
    assert [workload["name"] for workload in spec["workloads"]] == list(WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"]


def test_compare_verdicts():
    def entry(median, p25=None, p75=None):
        return {"median": median, "p25": median if p25 is None else p25,
                "p75": median if p75 is None else p75}

    parent = entry(10.0, 9.9, 10.1)
    assert compare.verdict(parent, entry(10.5, 10.4, 10.6), "lower", 0.1) == "unchanged"
    assert compare.verdict(parent, entry(11.5, 11.4, 11.6), "lower", 0.1) == "worse"
    assert compare.verdict(parent, entry(9.0, 8.9, 9.1), "lower", 0.1) == "better"
    assert compare.verdict(parent, entry(9.5, 9.0, 10.0), "lower", 0.2) == "unchanged"
    assert compare.verdict(parent, entry(10.0, 8.0, 12.0), "lower", 0.1) == "unresolved"
    assert compare.verdict(entry(0.0), entry(0.2), "lower", 0.0) == "worse"
    assert compare.verdict(entry(0.0), entry(0.0), "lower", 0.0) == "unchanged"
    assert compare.verdict(entry(5.0), entry(5.5), "equal", 0.0) == "worse"


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path)
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz-diff", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
