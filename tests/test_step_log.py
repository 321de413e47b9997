"""Step-log oracle: every engine step, at the same time and in the same order.

Each case runs one program with a flight recorder large enough to keep every
event, and hashes the ``repr`` of each ring event in order: the engine's
``(time, actor, status, detail)`` step records and the instant markers
between them.  The digests are pinned, so a change that claims to keep the
simulation exact (a faster burst, a cheaper daemon step, a different wake-up
path) must reproduce the log event for event.

A case runs in a fresh interpreter because channel and communicator ids come
from process-global counters and show up in wait keys; it runs under two hash
seeds because the step order must not depend on memory addresses or string
hashes.  ``python tests/test_step_log.py CASE`` prints a case's event count
and digest.

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


def _digest_in_subprocess(name, hash_seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (os.path.join(ROOT, "src"), env.get("PYTHONPATH"))
        if path)
    env["PYTHONHASHSEED"] = str(hash_seed)
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), name], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    count, digest = completed.stdout.split()
    return int(count), digest


@pytest.mark.parametrize("name", sorted(PINNED))
def test_step_log_matches_its_pinned_digest_under_two_hash_seeds(name):
    for hash_seed in (0, 1):
        assert _digest_in_subprocess(name, hash_seed) == PINNED[name], \
            hash_seed


if __name__ == "__main__":
    print(*step_log_digest(sys.argv[1]))
