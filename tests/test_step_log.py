"""Step-log oracle: every engine step, at the same time and in the same order.

Each case runs one program with a flight recorder large enough to keep every
event, and hashes the ``repr`` of each ring event in order: the engine's
``(time, actor, status, detail)`` step records and the instant markers
between them.  The digests are pinned, so a change that claims to keep the
simulation exact (a faster burst, a cheaper daemon step, a different wake-up
path) must reproduce the log event for event.

The cases run under two hash seeds, because the step order must not depend
on memory addresses or string hashes: one interpreter per seed computes all
of them in order.  That one interpreter serves every case because a run
numbers its channels, communicators and ops itself (each engine counts from
0), so its log does not depend on what ran before it; the last test checks
that in this process, on every backend.  ``python tests/test_step_log.py
[CASE ...]`` prints each case's name, event count and digest (all cases by
default).

``dfccl-fig13-3d-16gpu`` is Fig. 13's ``3d-16gpu`` GPT-2 run on dfccl (two
iterations, one of them warm-up): its 16 daemons spin and preempt in
lock-step, so it pins the engine's passing of timed waiters' retries.
"""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``name -> (event count, sha256 of the events' reprs)``.
PINNED = {
    "dfccl-ring-64": (6084, "924f76a33bf9f76dc977bd28ac847b5b"
                             "5b8b434898f20c6c6a26972e6940524d"),
    "nccl-hierarchical-64": (2147, "0a52ed59b7620a1f75e8e9b39062065f"
                                   "27eeda2e3695973f12cf4b52e18a4764"),
    "dfccl-tree-64": (5056, "4def5abe5e9481d53e030b7201ee6a34"
                            "b2788d37a6eb71dc3f70025dc1a3b7fe"),
    "dfccl-fuzz-7-0": (573, "5990af74902b309a9c2875140f0b4254"
                            "c9a1d7b11b51f4f62bb3089903dbe57d"),
    "dfccl-fuzz-1-3": (918, "6ef75009c6a648798521a572bcbbaf59"
                            "cea9ceae4d14f4c0b73401ab11d0ba18"),
    "dfccl-fig13-3d-16gpu": (80665, "b3e7e8f5e2e4223c51808a87a241ce9a"
                                    "7a4a1457e51ce66ec61165628b285488"),
}


def _program(name):
    """``(program, backend)`` of case ``name``."""
    from repro.testing import collective_program
    from repro.testing.fuzz import program_at

    if name.startswith("dfccl-fuzz-"):
        seed, index = map(int, name.rsplit("-", 2)[1:])
        return program_at(seed, index), "dfccl"
    backend, algorithm, ranks = name.split("-")
    program = collective_program(
        f"fat-tree-{ranks}", int(ranks), "all_reduce", 1 << 20, rounds=2,
        chunk_bytes=128 << 10, algorithm=algorithm)
    return program, backend


def _run_fig13(obs):
    """Fig. 13 ``3d-16gpu`` on dfccl, two iterations, recorded into ``obs``."""
    from repro.bench.training_experiments import (
        GPT2_CASES,
        TRAINING_CHUNK_BYTES,
    )
    from repro.gpusim import build_cluster
    from repro.workloads import (
        GroupTrainingBackend,
        ParallelPlan,
        TrainingRun,
        gpt2_model,
    )

    params = GPT2_CASES["3d-16gpu"]
    plan = ParallelPlan(gpt2_model(params["variant"]), tp=params["tp"],
                        dp=params["dp"], pp=params["pp"], microbatch_size=18,
                        num_microbatches=2, grad_buckets=8)
    cluster = build_cluster(params["topology"], observability=obs)
    backend = GroupTrainingBackend(cluster, "dfccl",
                                   chunk_bytes=TRAINING_CHUNK_BYTES)
    TrainingRun(cluster, plan, backend, iterations=2, warmup=1).run()


def step_log_digest(name):
    """``(event count, sha256)`` of case ``name``'s flight-recorder ring."""
    from repro.obs import Observability
    from repro.testing.differential import replay_program

    obs = Observability(event_capacity=10**7)
    if name == "dfccl-fig13-3d-16gpu":
        _run_fig13(obs)
    else:
        program, backend = _program(name)
        replay_program(program, backend, observability=obs)
    digest = hashlib.sha256()
    for event in obs.recorder.ring:
        digest.update(repr(event).encode())
    return len(obs.recorder.ring), digest.hexdigest()


@pytest.fixture(scope="module")
def digests_by_hash_seed():
    """``hash seed -> {name: (event count, sha256)}`` of every case, from
    one interpreter per seed (the two run side by side)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (os.path.join(ROOT, "src"), env.get("PYTHONPATH"))
        if path)
    processes = {
        hash_seed: subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)], cwd=ROOT,
            env=dict(env, PYTHONHASHSEED=str(hash_seed)),
            stdout=subprocess.PIPE, text=True)
        for hash_seed in (0, 1)
    }
    digests = {}
    try:
        for hash_seed, process in processes.items():
            out, _ = process.communicate(timeout=600)
            assert process.returncode == 0, hash_seed
            digests[hash_seed] = {
                name: (int(count), digest)
                for name, count, digest in map(str.split, out.splitlines())}
    finally:
        for process in processes.values():
            process.kill()
    return digests


@pytest.mark.parametrize("name", sorted(PINNED))
def test_step_log_matches_its_pinned_digest_under_two_hash_seeds(
        name, digests_by_hash_seed):
    for hash_seed, digests in digests_by_hash_seed.items():
        assert digests[name] == PINNED[name], hash_seed


def _interleaved_logs(programs, backend, window_us):
    """Each program's flight-recorder events on ``backend``.

    Every program's cluster is built first; then the clusters take turns,
    each running to the next multiple of ``window_us`` until its run is
    over, so their construction and their steps interleave.  A window's end
    settles timed waiters (their next retry becomes a step), so only logs
    of equal windows compare.
    """
    from repro.obs import Observability
    from repro.testing.differential import install_program

    runs = []
    for program in programs:
        obs = Observability(event_capacity=10**6)
        cluster, _, _ = install_program(program, backend, observability=obs)
        runs.append((cluster, obs))
    until_us, live = 0.0, [cluster for cluster, _ in runs]
    while live:
        until_us += window_us
        live = [cluster for cluster in live
                if cluster.run(until_us=until_us) >= until_us]
    for cluster, _ in runs:
        cluster.close()
    return [list(obs.recorder.ring) for _, obs in runs]


@pytest.mark.parametrize("backend", ["dfccl", "mpi", "nccl"])
def test_a_run_logs_the_same_events_whatever_ran_before_it(backend):
    """A program run twice in this process logs the same events both times,
    ids in wait keys and step details included; so does each of two
    programs whose clusters are built and run interleaved."""
    from repro.testing.fuzz import program_at

    first, second = program_at(7, 0), program_at(1, 3)
    (log,) = _interleaved_logs([first], backend, first.deadline_us)
    assert _interleaved_logs([first], backend, first.deadline_us) == [log]

    solo = [_interleaved_logs([program], backend, 10.0)[0]
            for program in (first, second)]
    assert _interleaved_logs([first, second], backend, 10.0) == solo


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(PINNED):
        print(name, *step_log_digest(name))
