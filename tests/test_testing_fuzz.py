"""Tests for the differential conformance fuzzer (``repro.testing``).

Includes the committed *negative* test: a backend with a deliberately
injected sequence bug (wrong chunking on an otherwise correct engine) must be
caught by the checker's sequence-parity invariant, and the minimizer must
shrink the failing program.
"""

import pytest

from repro.api import register_backend
from repro.api.nccl_adapter import NcclCollectiveBackend
from repro.common.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.testing import (
    CallSpec,
    GroupSpec,
    ProgramSpec,
    check_program,
    generate_program,
    replay_program,
    topology_for_world,
)
from repro.collectives import Schedule
from repro.testing.differential import DEFAULT_BACKENDS, _check_sequence_parity
from repro.testing.fuzz import fuzz, main, minimize_program
from dataclasses import replace


class TestGenerator:
    def test_same_seed_same_program(self):
        one = generate_program(seed=123, world_size=6)
        two = generate_program(seed=123, world_size=6)
        assert one.describe() == two.describe()

    def test_different_seeds_differ(self):
        programs = {repr(generate_program(seed=s, world_size=6).describe())
                    for s in range(8)}
        assert len(programs) > 1

    def test_programs_are_well_formed(self):
        for seed in range(20):
            program = generate_program(seed=seed, world_size=8)
            assert program.groups[0].ranks == tuple(range(8))
            for call in program.calls:
                group = program.group(call.group_index)
                assert call.count >= 1
                assert 0 <= call.root < len(group.ranks)
                # Every member rank issues the call exactly once.
                for rank in range(8):
                    occurrences = program.order_for(rank).count(call.call_id)
                    assert occurrences == (1 if rank in group.ranks else 0)

    def test_fault_programs_always_crash_someone(self):
        program = generate_program(seed=77, world_size=8, with_faults=True)
        assert program.has_faults
        assert program.crashed_ranks()
        assert 0 not in program.crashed_ranks()

    def test_generated_calls_run_once_on_their_own_stream(self):
        repeats = 0
        for seed in range(40):
            program = generate_program(seed=seed, world_size=6)
            assert program.rounds == 1
            for call in program.calls:
                assert call.stream == f"s{call.call_id}"
                repeats += call.key != f"c{call.call_id}"
        assert repeats, "no repeated call drawn: the check above proves nothing"

    def test_describe_includes_rounds_and_streams(self):
        described = replace(generate_program(seed=4, world_size=4),
                            rounds=3).describe()
        assert described["rounds"] == 3
        assert [call["stream"] for call in described["calls"]] == [
            f"s{call['call_id']}" for call in described["calls"]]

    def test_topology_for_world(self):
        assert topology_for_world(4) == "single-3090"
        assert topology_for_world(16) == "dual-3090"
        assert topology_for_world(32) == "mixed-32"
        assert topology_for_world(64) == "fat-tree-64"
        assert topology_for_world(500) == "fat-tree-504"
        with pytest.raises(ConfigurationError):
            topology_for_world(0)


class TestReplay:
    def test_replay_completes_and_records(self):
        program = generate_program(seed=1, world_size=4)
        result = replay_program(program, "dfccl")
        assert result.completed
        assert result.records
        assert all(record.done for record in result.records)
        # dfccl compiles sequences; every record carries one.
        assert result.sequences_available()

    def test_rounds_wait_for_the_previous_round(self):
        calls = (CallSpec(call_id=0, group_index=0, kind="all_reduce",
                          count=1 << 12, key="c0", stream="s0"),
                 CallSpec(call_id=1, group_index=0, kind="all_gather",
                          count=1 << 10, key="c1", stream="s1"))
        program = ProgramSpec(
            seed=0, world_size=4, topology="single-3090",
            chunk_bytes=64 << 10, algorithm="ring",
            groups=(GroupSpec(0, (0, 1, 2, 3)),), calls=calls,
            orders=((0, 1), (1, 0), (0, 1), (1, 0)), rounds=2,
        )
        result = replay_program(program, "dfccl", capture_obs=True)
        assert result.completed
        indices = {}
        for record in result.records:
            indices.setdefault((record.rank, record.key), []).append(record.index)
        assert len(indices) == 8
        assert all(sorted(found) == [0, 1] for found in indices.values())
        # A collective span opens when its rank submits the Work and closes
        # when that rank's part completes.
        spans = [span for span in result.flight_dump["spans"]
                 if span["category"] == "collective"]
        for rank in range(4):
            mine = [span for span in spans if span["track"] == f"rank{rank}"]
            first = [span["end_us"] for span in mine
                     if span["attrs"]["invocation"] == 0]
            second = [span["start_us"] for span in mine
                      if span["attrs"]["invocation"] == 1]
            assert len(first) == len(second) == 2
            assert min(second) >= max(first)

    def test_mpi_has_no_sequences(self):
        program = generate_program(seed=1, world_size=4)
        result = replay_program(program, "mpi")
        assert result.completed
        assert not result.sequences_available()

    def test_deadline_yields_stuck(self):
        program = replace(generate_program(seed=1, world_size=4),
                          deadline_us=1.0)
        result = replay_program(program, "dfccl")
        assert result.outcome == "stuck"
        undone = [record for record in result.records if not record.done]
        assert undone
        assert all(record.members is None for record in undone)


class TestChecker:
    def test_clean_programs_pass(self):
        for seed in (3, 11, 29):
            program = generate_program(seed=seed, world_size=5)
            check = check_program(program)
            assert check.ok, check.summary()
            assert set(check.results) == set(DEFAULT_BACKENDS)

    def test_fault_program_checks_dfccl_only(self):
        program = generate_program(seed=77, world_size=8, with_faults=True)
        check = check_program(program)
        assert check.ok, check.summary()
        assert set(check.results) == {"dfccl"}

    def test_determinism_replay_included(self):
        program = generate_program(seed=8, world_size=4)
        check = check_program(program, check_determinism=True)
        assert check.ok

    def test_dead_root_broadcast_aborts_instead_of_hanging(self):
        """Fuzzer-found recovery gap: a rooted collective whose root dies
        cannot be re-formed — survivors' waits must resolve as *aborted*
        (communicator-abort semantics) instead of spinning to the deadline."""
        from repro.faults.plan import FaultPlan

        order = (0,)
        program = ProgramSpec(
            seed=0, world_size=4, topology="single-3090",
            chunk_bytes=64 << 10, algorithm="ring",
            groups=(GroupSpec(0, (0, 1, 2, 3)),),
            calls=(CallSpec(call_id=0, group_index=0, kind="broadcast",
                            count=1 << 12, root=3, key="c0"),),
            orders=(order, order, order, order),
            # The root dies before it can submit anything: its data is gone.
            fault_plan=FaultPlan("dead-root").add_crash(3, at_us=0.5),
            deadline_us=100_000.0,
        )
        result = replay_program(program, "dfccl")
        assert result.outcome == "completed"
        assert result.time_us < program.deadline_us
        survivors = [rec for rec in result.records if rec.rank != 3]
        assert survivors
        assert all(rec.aborted and not rec.done for rec in survivors)
        check = check_program(program)
        assert check.ok, check.summary()

    def test_stuck_fault_program_is_flagged(self):
        """A recovery hang is a divergence even without an engine deadlock
        report: survivors of a fault program must complete by the deadline."""
        program = replace(
            generate_program(seed=77, world_size=8, with_faults=True),
            deadline_us=1.0,
        )
        check = check_program(program, check_determinism=False)
        assert not check.ok
        assert any(d.invariant == "liveness" and d.backend == "dfccl"
                   for d in check.divergences)


def _single_all_reduce_program(count=1 << 16, chunk_bytes=16 << 10, calls=1):
    """A handcrafted program big enough that chunking shapes the sequence."""
    call_list = tuple(
        CallSpec(call_id=i, group_index=0, kind="all_reduce", count=count,
                 key=f"c{i}")
        for i in range(calls)
    )
    order = tuple(call.call_id for call in call_list)
    return ProgramSpec(
        seed=0,
        world_size=4,
        topology="single-3090",
        chunk_bytes=chunk_bytes,
        algorithm="ring",
        groups=(GroupSpec(0, (0, 1, 2, 3)),),
        calls=call_list,
        orders=(order, order, order, order),
    )


class _WrongChunkNcclBackend(NcclCollectiveBackend):
    """Deliberately injected sequence bug: ignores the requested chunk size.

    Every rank is internally consistent (the program completes!), but the
    compiled per-rank primitive sequences no longer match DFCCL's — exactly
    the class of silent divergence the differential checker exists to catch.
    """

    name = "nccl-wrongchunk"

    def __init__(self, cluster, chunk_bytes=None, **knobs):
        wrong = (chunk_bytes // 2) if chunk_bytes else 64 << 10
        super().__init__(cluster, chunk_bytes=wrong, **knobs)


register_backend("nccl-wrongchunk", _WrongChunkNcclBackend)


class TestNegative:
    """The checker must catch an injected sequence bug (acceptance criterion)."""

    def test_wrong_chunking_is_caught(self):
        program = _single_all_reduce_program()
        check = check_program(program, backends=("dfccl", "nccl-wrongchunk"),
                              check_determinism=False)
        assert not check.ok
        invariants = {divergence.invariant for divergence in check.divergences}
        assert "sequence-parity" in invariants
        # The program itself completed on both backends: the bug is silent
        # without differential checking.
        assert all(result.completed for result in check.results.values())

    def test_a_mutated_schedule_reports_its_first_differing_primitive(self):
        """Parity compares compiled schedules and walks primitives only on a
        mismatch: the index and lengths it reports are those of the expanded
        sequences, and a schedule cut into other runs is no divergence."""
        program = _single_all_reduce_program(count=(1 << 16) + 1000)
        dfccl = replay_program(program, "dfccl")
        nccl = replay_program(program, "nccl")
        record = next(record for record in nccl.records if record.rank == 2)
        schedule = record.sequence
        (first, loops, body), (tail_first, _, tail) = schedule.segments
        assert loops > 1

        def changed(run, **fields):
            names = ("action", "count", "step", "chunk", "nbytes",
                     "send_peer", "recv_peer")
            return tuple(fields.get(name, value)
                         for name, value in zip(names, run))

        bigger_tail = tail[:2] + (changed(tail[2], nbytes=tail[2][4] + 1),) + tail[3:]
        split = body[:1] + (changed(body[1], count=1),
                            changed(body[1], count=body[1][1] - 1,
                                    step=body[1][2] + 1)) + body[2:]
        mutations = {
            "tail": Schedule([(first, loops, body),
                              (tail_first, 1, bigger_tail)]),
            "cut": Schedule([(first, loops - 1, body)]),
            "split": Schedule([(first, loops, split), (tail_first, 1, tail)]),
        }
        details = {}
        for name, mutated in mutations.items():
            divergences = []
            other = replace(nccl, records=[
                replace(each, sequence=mutated) if each is record else each
                for each in nccl.records])
            _check_sequence_parity(dfccl, other, divergences)
            details[name] = [divergence.detail for divergence in divergences]
        expected = list(schedule)
        length = sum(run[1] for run in body)  # primitives per loop
        tail_index = loops * length + tail[2][2]
        assert list(mutations["tail"])[tail_index] != expected[tail_index]
        assert details == {
            "tail": [f"differs from dfccl: first differs at primitive "
                     f"{tail_index} (lengths {len(expected)} vs "
                     f"{len(expected)})"],
            "cut": [f"differs from dfccl: first differs at primitive "
                    f"{(loops - 1) * length} (lengths {len(expected)} vs "
                    f"{(loops - 1) * length})"],
            "split": [],
        }

    def test_healthy_backend_passes_same_program(self):
        program = _single_all_reduce_program()
        check = check_program(program, backends=("dfccl", "nccl"),
                              check_determinism=False)
        assert check.ok, check.summary()

    def test_minimizer_shrinks_failing_program(self):
        program = _single_all_reduce_program(calls=3)
        backends = ("dfccl", "nccl-wrongchunk")
        assert not check_program(program, backends=backends,
                                 check_determinism=False).ok
        minimized = minimize_program(program, backends=backends)
        assert len(minimized.calls) == 1
        assert minimized.calls[0].count < program.calls[0].count
        # Still failing: the minimizer never "fixes" the reproducer.
        assert not check_program(minimized, backends=backends,
                                 check_determinism=False).ok

    def test_fuzz_loop_reports_failure(self, monkeypatch):
        """The loop must actually surface a divergent program as a failure."""
        import repro.testing.fuzz as fuzz_module

        monkeypatch.setattr(
            fuzz_module, "program_at",
            lambda seed, index, **_: _single_all_reduce_program(),
        )
        summary = fuzz(seed=5, programs=3, backends=("dfccl", "nccl-wrongchunk"),
                       log=lambda *_: None)
        assert len(summary["failures"]) == 1  # stop_on_failure default
        failure = summary["failures"][0]
        assert failure["index"] == 0
        assert any("sequence-parity" in d for d in failure["divergences"])

    def test_failure_writes_flight_recorder_artifacts(self, monkeypatch,
                                                      tmp_path):
        """A seeded failure lands the minimized program plus a flight dump."""
        import json

        import repro.testing.fuzz as fuzz_module

        monkeypatch.setattr(
            fuzz_module, "program_at",
            lambda seed, index, **_: _single_all_reduce_program(),
        )
        summary = fuzz(seed=5, programs=1,
                       backends=("dfccl", "nccl-wrongchunk"),
                       minimize=True, artifact_dir=str(tmp_path),
                       log=lambda *_: None)
        failure = summary["failures"][0]
        program_path, flight_path = failure["artifacts"]
        assert program_path.endswith("fuzz-seed5-p0.program.json")
        assert flight_path.endswith("fuzz-seed5-p0.flight.json")

        with open(program_path, encoding="utf-8") as handle:
            program_doc = json.load(handle)
        # The minimized reproducer, not the original 3-call program.
        assert program_doc["program"] == json.loads(
            json.dumps(failure["minimized"].describe(), default=str))
        assert any("sequence-parity" in d for d in program_doc["divergences"])

        with open(flight_path, encoding="utf-8") as handle:
            flight = json.load(handle)
        assert flight["reason"] == "fuzz"
        assert flight["context"]["backend"] == "dfccl"
        assert flight["events"], "flight dump must carry engine step events"
        assert flight["spans"], "flight dump must carry collective spans"
        assert flight["metrics"]["engine_steps"] > 0

    def test_main_exits_nonzero_and_prints_repro_on_failure(self, monkeypatch,
                                                            capsys):
        import repro.testing.fuzz as fuzz_module

        monkeypatch.setattr(
            fuzz_module, "program_at",
            lambda seed, index, **_: _single_all_reduce_program(),
        )
        exit_code = main(["--seed", "5", "--programs", "2", "--ranks", "16",
                          "--fault-fraction", "0.25", "--max-calls", "6",
                          "--backends", "dfccl,nccl-wrongchunk"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "failing program:" in captured.out
        # The repro command echoes the original generation knobs, not the
        # drawn world size.
        assert ("repro: python -m repro.testing.fuzz --seed 5 --programs 1 "
                "--ranks 16 --fault-fraction 0.25 --max-calls 6") in captured.out


class TestFuzzCli:
    def test_cli_smoke_passes(self, capsys):
        exit_code = main(["--seed", "1", "--programs", "4"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "0 divergent" in captured.out

    def test_module_entry_point_runs_without_warnings(self):
        """``python -m repro.testing.fuzz`` runs warning-free: importing the
        package must not pre-import the CLI module (runpy would warn)."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        completed = subprocess.run(
            [sys.executable, "-W", "error", "-m", "repro.testing.fuzz",
             "--seed", "0", "--programs", "2"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=300)
        assert completed.returncode == 0, completed.stderr
        assert "0 divergent" in completed.stdout

    def test_fuzz_function_clean_run(self):
        summary = fuzz(seed=2, programs=5, log=lambda *_: None)
        assert summary["failures"] == []
        assert summary["programs"] == 5
        assert summary["calls"] >= 5


class TestReproFidelity:
    def test_program_at_is_pure_and_index_independent(self):
        from repro.testing.fuzz import program_at

        knobs = {"max_ranks": 32, "fault_fraction": 0.4, "max_calls": 6}
        once = program_at(7, 11, **knobs)
        again = program_at(7, 11, **knobs)
        assert once.describe() == again.describe()

    def test_program_at_depends_on_generation_knobs(self):
        """The drawn program is a function of the knobs, which is exactly why
        the printed repro command must echo them rather than the drawn
        world size."""
        from repro.testing.fuzz import program_at

        wide = [program_at(0, i, max_ranks=32).describe() for i in range(10)]
        narrow = [program_at(0, i, max_ranks=8).describe() for i in range(10)]
        assert wide != narrow

    def test_fuzz_summary_carries_knobs(self):
        summary = fuzz(seed=3, programs=2, max_ranks=16, fault_fraction=0.5,
                       max_calls=3, log=lambda *_: None)
        assert summary["knobs"] == {"max_ranks": 16, "fault_fraction": 0.5,
                                    "max_calls": 3}

    def test_fuzz_loop_matches_program_at(self):
        """The loop generates exactly what the repro function regenerates."""
        from repro.testing.fuzz import program_at

        seen = []
        fuzz(seed=9, programs=3, max_ranks=16, fault_fraction=0.3,
             max_calls=4, verbose=True,
             log=lambda line: seen.append(line))
        for index in range(3):
            regenerated = program_at(9, index, max_ranks=16,
                                     fault_fraction=0.3, max_calls=4)
            assert f"seed={regenerated.seed} " in seen[index]
            assert f"world={regenerated.world_size} " in seen[index]


class TestKnownHangs:
    """Liveness failures the fuzzer once found; recovery must keep them fixed."""

    def test_seed9_program2_completes(self):
        from repro.testing.fuzz import program_at

        result = replay_program(program_at(9, 2), "dfccl")
        assert result.outcome == "completed"

    def test_seed9_program2_minimized_completes(self):
        """``minimize_program``'s reduction of seed 9, program 2.

        Rank 0, the root of broadcast ``c7``, ran its send before rank 4
        crashed.  Recovery re-formed ``c7`` over the six survivors; rank 0's
        daemon entry must re-run it over the new communicator rather than
        complete on the executor it already finished.
        """
        calls = (
            CallSpec(0, 0, "all_gather", 1, key="c0", stream="s0"),
            CallSpec(1, 0, "all_gather", 251, key="c1", stream="s1"),
            CallSpec(4, 0, "barrier", 1, key="c4", priority=2, stream="s4"),
            CallSpec(5, 0, "all_gather", 251, key="c1", stream="s5"),
            CallSpec(6, 0, "all_to_all", 1, key="c6", priority=0, stream="s6"),
            CallSpec(7, 0, "broadcast", 1, key="c7", priority=1, stream="s7"),
        )
        in_order = (0, 1, 4, 5, 6, 7)
        program = ProgramSpec(
            seed=1024970403, world_size=7, topology="single-3090",
            chunk_bytes=16384, algorithm="ring",
            groups=(GroupSpec(0, tuple(range(7))),), calls=calls,
            orders=((5, 1, 4, 0, 6, 7), in_order, in_order,
                    (7, 6, 4, 1, 0, 5), in_order, in_order, in_order),
            fault_plan=FaultPlan(name="seed9-program2").add_crash(4, at_us=7060.0))
        result = replay_program(program, "dfccl")
        assert result.outcome == "completed"
        assert result.fingerprints_consistent()

    @pytest.mark.timeout(120)
    def test_mixed_seeded_chaos_on_fat_tree_128_completes(self):
        from repro.bench.fault_experiments import CHAOS_PLANS
        from repro.faults.scenarios import run_dfccl_chaos

        result = run_dfccl_chaos(CHAOS_PLANS["mixed-seeded"](128),
                                 topology="fat-tree-128", world_size=128)
        assert result.outcome == "completed"

    @pytest.mark.parametrize("seed", [1, 5, 9, 23, 24])
    def test_fault_heavy_stream_is_live(self, seed):
        """Every program of a fault-heavy dfccl stream ends completed or
        cleanly aborted (``--ranks 8 --fault-fraction 1.0 --backends dfccl``)."""
        summary = fuzz(seed=seed, programs=100, max_ranks=8, backends=("dfccl",),
                       fault_fraction=1.0, stop_on_failure=False,
                       log=lambda *_: None)
        assert [(failure["index"], failure["divergences"])
                for failure in summary["failures"]] == []
