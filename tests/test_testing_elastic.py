"""Elastic scheduler fuzzer: scenario generation, oracle, CLI wiring."""

import hashlib
import json

import pytest

import repro.testing.fuzz as fuzz_cli
from repro.common.rng import DeterministicRNG
from repro.testing.elastic import (
    EVENT_KINDS,
    check_elastic_scenario,
    fuzz_elastic,
    generate_elastic_scenario,
    run_elastic_scenario,
)


class TestScenarioGeneration:
    def test_pure_function_of_seed(self):
        first = generate_elastic_scenario(1234)
        second = generate_elastic_scenario(1234)
        assert first == second
        assert first != generate_elastic_scenario(1235)

    def test_scenario_is_json_safe_plain_data(self):
        scenario = generate_elastic_scenario(7)
        assert json.loads(json.dumps(scenario)) == scenario
        assert scenario["jobs"]
        for event in scenario["events"]:
            assert event["kind"] in EVENT_KINDS
            assert event["time_us"] > 0

    def test_events_sorted_by_time(self):
        scenario = generate_elastic_scenario(99, max_events=3)
        times = [event["time_us"] for event in scenario["events"]]
        assert times == sorted(times)


class TestScenarioOracle:
    def test_replay_is_deterministic_and_live(self):
        scenario = generate_elastic_scenario(21)
        problems, outcome = check_elastic_scenario(scenario)
        assert problems == []
        assert outcome["summary"]["unfinished"] == 0
        assert outcome["summary"]["starved"] == 0
        assert {row["job"] for row in outcome["jobs"]} >= \
            {job["job_id"] for job in scenario["jobs"]}

    def test_outcome_shape(self):
        scenario = generate_elastic_scenario(5)
        outcome = run_elastic_scenario(scenario)
        json.dumps(outcome)  # JSON-safe (tuples degrade to lists)
        for row in outcome["jobs"]:
            for field in ("job", "state", "preemptions", "epoch",
                          "completed_iterations", "checkpoint"):
                assert field in row


class TestFuzzLoop:
    def test_smoke_scenarios_pass(self):
        summary = fuzz_elastic(seed=0, scenarios=2, log=lambda *args: None)
        assert summary["failures"] == []
        assert summary["kinds"]

    def test_cli_elastic_flag(self, capsys):
        exit_code = fuzz_cli.main(["--elastic", "1", "--programs", "1"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "elastic fuzz: 1 scenarios" in out


class TestElasticExactness:
    """Bit-exact pin of the outcomes of ``fuzz_elastic``'s scenarios.

    Each seed digests the outcomes of its first 12 scenarios (event log,
    summary, total time and the job fields below), so a change to the
    replay driver or the scheduler cannot silently move them.
    """

    JOB_FIELDS = ("job", "state", "preemptions", "epoch",
                  "completed_iterations", "jct_us", "leased_ranks",
                  "checkpoint")

    @pytest.mark.parametrize("seed, digest", [(0, "ad00b50742b0399f"),
                                              (3, "468a5033293bbb02")])
    def test_fuzz_outcomes_pinned(self, seed, digest):
        outcomes = []
        for index in range(12):
            scenario = generate_elastic_scenario(
                DeterministicRNG(seed).child("elastic", index)
                .randint(0, 1 << 30))
            outcome = run_elastic_scenario(scenario)
            outcome["jobs"] = [{field: row[field] for field in self.JOB_FIELDS}
                               for row in outcome["jobs"]]
            outcomes.append(outcome)
        text = json.dumps(outcomes, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
