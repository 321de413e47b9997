"""Critical-path time attribution: causal DAG, buckets, flows, link timelines.

The analysis layer's core contract is **conservation**: for every traced
invocation the attributed buckets (queueing, alpha, beta, memory, overhead,
contention, completion, residual) must telescope back to the measured
submit-to-complete virtual time — the residual is the error term and must
stay ~0 on fault-free runs.  These tests pin that identity on both the DFCCL
and NCCL backends, the cross-rank critical-path walk on a multi-node fabric,
the chrome-trace flow arrows, the windowed link-utilization timelines (with
and without degraded links) and the bucket-level calibration feedback.
"""

import json

import pytest

from repro.obs.analysis import (
    BUCKET_NAMES,
    TIER_NAMES,
    analyze_run,
    critical_path_flows,
    render_analysis,
)
from repro.obs.links import link_rows, link_utilization_timeline
from repro.obs.report import demo_run
from repro.obs.trace import chrome_trace_events


@pytest.fixture(scope="module")
def flat_run():
    """An analyzed 8-rank single-node DFCCL all-reduce (two iterations)."""
    cluster, backend = demo_run(ranks=8, analyze=True)
    obs = cluster.engine.obs
    return cluster, backend, obs, analyze_run(obs)


@pytest.fixture(scope="module")
def fat_tree_run():
    """An analyzed 32-rank fat-tree DFCCL all-reduce (cross-node ring)."""
    cluster, backend = demo_run(ranks=32, topology="fat-tree-32",
                                analyze=True)
    obs = cluster.engine.obs
    return cluster, backend, obs, analyze_run(obs)


class TestConservation:
    def test_buckets_sum_to_measured_time(self, flat_run):
        _, _, _, results = flat_run
        assert len(results["invocations"]) == 2
        for invocation in results["invocations"]:
            buckets = invocation["buckets"]
            assert set(buckets) == set(BUCKET_NAMES)
            assert sum(buckets.values()) == pytest.approx(
                invocation["measured_us"], rel=1e-9)
            # The residual *is* the conservation error; fault-free runs
            # decompose exactly (floating-point noise only).
            assert invocation["conservation_error"] < 1e-9

    def test_run_level_decomposition_conserves(self, flat_run):
        _, _, _, results = flat_run
        run = results["run"]
        assert run is not None
        assert sum(run["buckets"].values()) == pytest.approx(
            run["measured_us"], rel=1e-9)
        assert run["conservation_error"] < 1e-9
        # The run spans both invocations, so it measures at least as much
        # time as either one alone.
        assert run["measured_us"] >= max(
            inv["measured_us"] for inv in results["invocations"])

    def test_nccl_backend_conserves_too(self):
        cluster, _ = demo_run(ranks=4, backend="nccl", analyze=True)
        results = analyze_run(cluster.engine.obs)
        assert results["invocations"]
        for invocation in results["invocations"]:
            assert invocation["backend"] == "nccl"
            assert invocation["conservation_error"] < 1e-9

    def test_pipelined_iteration_charges_wait_to_queueing(self, flat_run):
        _, _, _, results = flat_run
        first, second = sorted(results["invocations"],
                               key=lambda inv: str(inv["invocation"]))
        # Iteration two is submitted immediately but must wait for iteration
        # one's data on the shared channels — that wait is queueing, so the
        # pipelined invocation queues strictly longer.
        assert (second["buckets"]["queueing_us"]
                > first["buckets"]["queueing_us"])

    def test_analyze_requires_enable(self):
        cluster, _ = demo_run(ranks=4)
        with pytest.raises(ValueError, match="enable_analysis"):
            analyze_run(cluster.engine.obs)


class TestCriticalPath:
    def test_cross_rank_walk_on_fat_tree(self, fat_tree_run):
        _, _, _, results = fat_tree_run
        for invocation in results["invocations"]:
            path = invocation["critical_path"]
            assert path["nodes"] >= 1
            assert path["cross_rank_edges"] >= 1
            assert path["path_time_us"] <= invocation["measured_us"]
            assert "->" in path["slowest_link"]
            for edge in path["edges"]:
                assert edge["from_track"] != edge["to_track"]
                assert edge["ts_to"] >= edge["ts_from"]

    def test_straggler_names_the_slowest_rank(self, fat_tree_run):
        _, _, _, results = fat_tree_run
        invocation = results["invocations"][0]
        straggler = invocation["straggler"]
        assert straggler["slowest_rank"].startswith("rank")
        assert straggler["completion_z"] >= 0.0
        assert straggler["skew_us"] >= 0.0
        assert (invocation["critical_path"]["slowest_rank"]
                == straggler["slowest_rank"])

    def test_tiers_split_the_wire_time_exactly(self, fat_tree_run):
        _, _, _, results = fat_tree_run
        for invocation in results["invocations"]:
            tiers = invocation["tiers"]
            assert set(tiers) == set(TIER_NAMES)
            wire = (invocation["buckets"]["alpha_us"]
                    + invocation["buckets"]["beta_us"])
            assert sum(tiers.values()) == pytest.approx(wire, rel=1e-9)
            # fat-tree-32 is one pod of four nodes: the ring crosses RDMA
            # links but never the spine.
            assert tiers["intra_pod_us"] > 0.0
            assert tiers["spine_us"] == 0.0

    def test_render_is_human_readable(self, flat_run):
        _, _, _, results = flat_run
        text = render_analysis(results)
        assert "critical path" in text
        assert "conservation error" in text
        for name in BUCKET_NAMES:
            assert name in text


class TestCalibrationFeedback:
    def test_cells_carry_measured_and_predicted_buckets(self, fat_tree_run):
        _, _, obs, _ = fat_tree_run
        rows = obs.calibration_report()
        assert rows
        for row in rows:
            measured = row["measured_buckets"]
            assert set(measured) == set(BUCKET_NAMES)
            predicted = row["predicted_buckets"]
            assert predicted["alpha_us"] >= 0.0
            # The breakdown must sum to the scalar prediction the selector
            # already reported — same model, two granularities.
            assert sum(predicted.values()) == pytest.approx(
                row["predicted_cost_us"], rel=1e-6)
            assert row["mispredicted_bucket"] in BUCKET_NAMES
            assert row["mispredicted_bucket"] != "residual_us"
            assert row["mispredicted_gap_us"] >= 0.0

    def test_measured_wire_matches_prediction_on_fat_tree(self, fat_tree_run):
        _, _, obs, _ = fat_tree_run
        row = obs.calibration_report()[0]
        # The ring's alpha/beta physics are modeled exactly, so the gap must
        # come from queueing (pipelining), not from the wire terms.
        assert row["measured_buckets"]["alpha_us"] == pytest.approx(
            row["predicted_buckets"]["alpha_us"], rel=0.05)
        assert row["measured_buckets"]["beta_us"] == pytest.approx(
            row["predicted_buckets"]["beta_us"], rel=0.05)


class TestFlowArrows:
    def test_flows_render_as_paired_chrome_events(self, fat_tree_run):
        _, _, obs, results = fat_tree_run
        flows = critical_path_flows(results)
        assert flows
        events = chrome_trace_events(obs, flows=flows)
        starts = [event for event in events if event["ph"] == "s"]
        finishes = [event for event in events if event["ph"] == "f"]
        assert len(starts) == len(finishes) == len(flows)
        by_id = {event["id"]: event for event in starts}
        for finish in finishes:
            start = by_id[finish["id"]]
            assert finish["bp"] == "e"
            assert finish["ts"] >= start["ts"]
            assert finish["pid"] == start["pid"]

    def test_trace_valid_without_flows(self, fat_tree_run):
        _, _, obs, _ = fat_tree_run
        events = chrome_trace_events(obs)
        assert not [event for event in events if event["ph"] in ("s", "f")]
        json.dumps(events)  # must stay serializable either way

    def test_unknown_tracks_are_skipped_not_fatal(self, fat_tree_run):
        _, _, obs, _ = fat_tree_run
        bogus = [{"id": 99, "job": "no-such-job", "from_track": "rankX",
                  "to_track": "rankY", "ts_from": 0.0, "ts_to": 1.0}]
        events = chrome_trace_events(obs, flows=bogus)
        assert not [event for event in events if event["ph"] in ("s", "f")]


class TestLinkTimeline:
    def test_windows_bucket_traced_sends(self, fat_tree_run):
        _, _, obs, _ = fat_tree_run
        timeline = link_utilization_timeline(obs)
        assert timeline["links"]
        assert timeline["window_us"] > 0.0
        for link in timeline["links"]:
            assert "->" not in link["src"]  # src/dst split, not joined
            for window in link["windows"]:
                assert window["end_us"] - window["start_us"] == \
                    pytest.approx(timeline["window_us"])
                assert window["bytes"] > 0
                assert window["messages"] >= 1
                assert window["utilization"] == pytest.approx(
                    window["busy_us"] / timeline["window_us"])

    def test_explicit_window_size(self, fat_tree_run):
        _, _, obs, _ = fat_tree_run
        timeline = link_utilization_timeline(obs, window_us=50.0)
        assert timeline["window_us"] == 50.0
        spans = {window["start_us"] % 50.0
                 for link in timeline["links"] for window in link["windows"]}
        assert spans == {0.0}

    def test_empty_without_analysis(self):
        cluster, _ = demo_run(ranks=4)
        timeline = link_utilization_timeline(cluster.engine.obs)
        assert timeline["links"] == []


class TestLinksUnderDegradation:
    def test_busy_follows_the_current_link_spec(self, fat_tree_run):
        cluster, backend, _, _ = fat_tree_run
        communicators = [coll.communicator
                         for coll in backend.collectives.values()]
        baseline = {(row["src"], row["dst"]): row
                    for row in link_rows(communicators)}
        src = cluster.device(7).device_id
        dst = cluster.device(8).device_id  # ring edge crossing to node 1
        key = (str(src), str(dst))
        assert key in baseline
        cluster.interconnect.degrade_link(src, dst, beta_factor=10.0,
                                          alpha_add_us=25.0)
        try:
            degraded = {(row["src"], row["dst"]): row
                        for row in link_rows(communicators)}
            # Busy time is derived from the *current* LinkSpec at aggregation
            # time: a degraded link re-prices its recorded traffic, while the
            # traffic counters themselves are immutable history.
            assert degraded[key]["busy_us"] > 2 * baseline[key]["busy_us"]
            assert degraded[key]["bytes"] == baseline[key]["bytes"]
            assert degraded[key]["messages"] == baseline[key]["messages"]
            untouched = (str(cluster.device(15).device_id),
                         str(cluster.device(16).device_id))
            assert degraded[untouched]["busy_us"] == pytest.approx(
                baseline[untouched]["busy_us"])
        finally:
            cluster.interconnect.restore_link(src, dst, beta_factor=10.0,
                                              alpha_add_us=25.0)

    def test_channels_counted_once_across_views(self, fat_tree_run):
        _, backend, _, _ = fat_tree_run
        communicators = [coll.communicator
                         for coll in backend.collectives.values()]
        once = link_rows(communicators)
        twice = link_rows(communicators + communicators)
        assert twice == once


class TestBenchAttribution:
    def test_scale_point_row_carries_conserving_attribution(self):
        from repro.bench.scale_experiments import run_scale_point

        row = run_scale_point(8, topology="flat", algorithm="ring",
                              analyze=True)
        attribution = row["attribution"]
        run = attribution["run"]
        assert sum(run["buckets"].values()) == pytest.approx(
            run["measured_us"], rel=1e-9)
        assert attribution["worst_invocation_conservation_error"] <= 0.01
        assert run["critical_path"]["slowest_rank"]
        for invocation in attribution["invocations"]:
            assert sum(invocation["buckets"].values()) == pytest.approx(
                invocation["measured_us"], rel=1e-9)
