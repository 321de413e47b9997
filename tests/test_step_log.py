"""Step-log oracles over every flight-recorder event of a run: the engine's
``(time, actor, status, detail)`` steps and the markers between them.

*Elisions are exact.*  The engine passes a timed waiter's retries without
stepping it (spin retries, fruitless passes, idle polls; lock-step daemons as
cohorts).  The reference steps each one: :func:`stepped` patches
``Engine._wait``, which every WAIT goes through, to queue the waiter like a
``PROGRESS`` step; ``src/`` has no switch for it.  :func:`assert_elisions_exact`
runs both arms in one process and checks that (1) the results, every
``DaemonStats`` field but ``spin_waits`` and each daemon generation's
``ContextStats`` are equal; (2) the elided log minus ``REPLAY_MARKERS`` is an
in-order subsequence of the reference log; (3) every reference event left
over is a daemon step of the closed list ``ELIDABLE``, after that daemon's
``wait`` step in the elided log and before its next one; (4) a failure names
the first divergent event or value.  A new elision extends ``ELIDABLE``.

*How much is elided is pinned*: ``PINNED`` holds the sha256 of the events'
``repr`` of six programs, so an elision that merely elides less passes the
oracle and moves a digest.  The digests run under two hash seeds (the step
order must not depend on addresses or string hashes), one interpreter per
seed for all cases, since a run numbers its own channels, communicators and
ops; the last test checks that on every backend.  ``python
tests/test_step_log.py [CASE ...]`` prints each case's name, event count and
digest.  ``dfccl-fig13-3d-16gpu`` is Fig. 13's ``3d-16gpu`` GPT-2 run on dfccl
(two iterations, one warm-up), 16 daemons spinning and preempting in lock-step.
"""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from unittest import mock

import pytest

from repro.bench.training_experiments import GPT2_CASES, TRAINING_CHUNK_BYTES
from repro.core.daemon import DaemonKernel
from repro.gpusim import build_cluster
from repro.gpusim.engine import _KIND_READY, Engine
from repro.obs import Observability
from repro.testing import collective_program
from repro.testing.differential import install_program, replay_program
from repro.testing.fuzz import program_at
from repro.workloads import (
    GroupTrainingBackend,
    ParallelPlan,
    TrainingRun,
    gpt2_model,
)

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

#: The reference steps an elided run may pass: a daemon step's ``(status,
#: detail)``, the detail cut before its collective id.
ELIDABLE = frozenset({
    ("wait", "spinning on coll"), ("progress", "spinning on coll"),
    ("progress", "preempted coll"), ("wait", "fruitless passes"),
    ("wait", "idle: polling SQ"), ("progress", "idle: polling SQ"),
})

#: The daemon's markers of a replay, which only an elided run logs.
REPLAY_MARKERS = frozenset({"spin wait", "fruitless passes", "idle SQ wait"})


def _program(name):
    """``(program, backend)`` of case ``name``."""
    if name.startswith("dfccl-fuzz-"):
        seed, index = map(int, name.rsplit("-", 2)[1:])
        return program_at(seed, index), "dfccl"
    backend, algorithm, ranks = name.split("-")
    program = collective_program(
        f"fat-tree-{ranks}", int(ranks), "all_reduce", 1 << 20, rounds=2,
        chunk_bytes=128 << 10, algorithm=algorithm)
    return program, backend


def _run_fig13(obs=None):
    """Fig. 13 ``3d-16gpu`` on dfccl, two iterations, recorded into ``obs``;
    returns the mean iteration time and each rank's ``DaemonStats``."""
    params = GPT2_CASES["3d-16gpu"]
    plan = ParallelPlan(gpt2_model(params["variant"]), tp=params["tp"],
                        dp=params["dp"], pp=params["pp"], microbatch_size=18,
                        num_microbatches=2, grad_buckets=8)
    cluster = build_cluster(params["topology"], observability=obs)
    backend = GroupTrainingBackend(cluster, "dfccl",
                                   chunk_bytes=TRAINING_CHUNK_BYTES)
    result = TrainingRun(cluster, plan, backend, iterations=2,
                         warmup=1).run()
    return (result.mean_iteration_time_ms,
            {rank: backend.stats(rank) for rank in range(16)})


def replayed(program, backend="dfccl", **knobs):
    """``run() -> (comparable result, DaemonStats by rank)`` of ``program``."""
    def run():
        result = replay_program(program, backend, **knobs)
        return ((result.comparable_state(), result.time_us),
                result.diagnostics.get("daemon_stats", {}))
    return run


def step_log_digest(name):
    """``(event count, sha256)`` of case ``name``'s flight-recorder ring."""
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


# -- the stepped reference and the projection -------------------------------------


def stepped():
    """Step every retry of every timed wait: ``Engine._wait`` queues the
    waiter where a ``PROGRESS`` step would have queued it."""
    return mock.patch.object(Engine, "_wait", lambda engine, actor, keys:
                             engine._schedule(actor, actor.clock.now,
                                              _KIND_READY))


@contextmanager
def recorded():
    """Record every engine built, keeping every event unless its builder
    passed a hub, and every daemon generation launched."""
    seen = {"engines": [], "daemons": []}
    init, launch = Engine.__init__, DaemonKernel.on_launch

    def record_init(engine, deadlock_mode="raise", observability=None):
        init(engine, deadlock_mode,
             observability or Observability(event_capacity=10**7))
        seen["engines"].append(engine)

    def record_launch(daemon, time_us):
        seen["daemons"].append(daemon)
        return launch(daemon, time_us)

    with mock.patch.object(Engine, "__init__", record_init), \
            mock.patch.object(DaemonKernel, "on_launch", record_launch):
        yield seen


def simulated(result, daemon_stats, daemons):
    """The result, every ``DaemonStats`` field but ``spin_waits`` (a stepped
    wait starts a new wait at each retry) and each daemon generation's
    ``ContextStats``, per rank."""
    stats = {rank: {**asdict(fields), "spin_waits": None}
             for rank, fields in daemon_stats.items()}
    contexts = {}
    for daemon in daemons:
        contexts.setdefault(daemon.ctx.global_rank, []).append(
            asdict(daemon.active_cache.stats))
    return {"result": result, "DaemonStats": stats, "ContextStats": contexts}


def _first_difference(elided, reference, path=""):
    """Where two unequal values first differ, and both values there."""
    if isinstance(elided, dict) and isinstance(reference, dict):
        pairs = [(key, elided.get(key), reference.get(key))
                 for key in {**elided, **reference}]
    elif (isinstance(elided, (list, tuple)) and isinstance(reference, (list, tuple))
          and len(elided) == len(reference)):
        pairs = list(zip(range(len(elided)), elided, reference))
    else:
        return f"{path}: elided {elided!r}, reference {reference!r}"
    key, mine, theirs = next(pair for pair in pairs if pair[1] != pair[2])
    return _first_difference(mine, theirs, f"{path}[{key!r}]")


def project(elided_log, reference_log):
    """Checks 2-4 of the module docstring; returns the reference steps left
    over, counted by ``(status, detail)`` kind."""
    events = [event for event in elided_log if not (
        len(event) == 5 and event[2] == "daemon" and event[3] in REPLAY_MARKERS)]
    waiting = set()   # daemons whose last elided step is a wait
    left = Counter()
    position = 0
    for index, event in enumerate(reference_log):
        if position < len(events) and event == events[position]:
            position += 1
            if len(event) == 4:
                (waiting.add if event[2] == "wait" else waiting.discard)(event[1])
            continue
        if len(event) == 4 and event[1].startswith("dfccl-daemon-") \
                and event[1] in waiting:
            head, coll, _ = event[3].partition(" coll ")
            kind = event[2], head + coll.rstrip()
            if kind in ELIDABLE:
                left[kind] += 1
                continue
        expected = events[position] if position < len(events) else None
        pytest.fail(f"first divergent event: reference[{index}] {event!r} is "
                    f"not elidable; elided[{position}] (without replay "
                    f"markers) is {expected!r}")
    if position < len(events):
        pytest.fail(f"first divergent event: elided[{position}] (without "
                    f"replay markers) {events[position]!r} is not in the "
                    f"reference log")
    return left


def assert_elisions_exact(run, elided=None):
    """Run ``run() -> (comparable result, DaemonStats by rank)`` as is
    (inside the context manager ``elided``, if given) and :func:`stepped`,
    and check the four properties of the module docstring.  Returns the
    reference steps left over, by kind."""
    arms = []
    for arm in (elided or nullcontext(), stepped()):
        with recorded() as seen, arm:
            result, daemon_stats = run()
        arms.append((simulated(result, daemon_stats, seen["daemons"]),
                     [event for engine in seen["engines"]
                      for event in engine.obs.recorder.ring]))
    (values, elided_log), (reference, reference_log) = arms
    left = project(elided_log, reference_log)
    if values != reference:
        pytest.fail("first divergent value: "
                    + _first_difference(values, reference))
    return left


@pytest.mark.parametrize("name", sorted(PINNED))
def test_elided_log_projects_the_stepped_log(name):
    run = _run_fig13 if name == "dfccl-fig13-3d-16gpu" else replayed(
        *_program(name))
    # nccl takes no timed wait, so its two logs are equal.
    assert bool(assert_elisions_exact(run)) == name.startswith("dfccl-")


#: Fault-heavy fuzz programs at fault fraction 1.0, ``(seed, index,
#: max_ranks)``; seeds 1 and 5 run in ``test_daemon_fruitless.py``.
FAULT_HEAVY = ([(seed, index, 8) for seed in (23, 24) for index in range(6)]
               + [(24, index, 32) for index in range(4)])


@pytest.mark.parametrize("seed, index, max_ranks", FAULT_HEAVY)
def test_fault_heavy_program_projects_the_stepped_log(seed, index, max_ranks):
    assert_elisions_exact(replayed(program_at(
        seed, index, max_ranks=max_ranks, fault_fraction=1.0)))


# -- pinned digests and run independence -------------------------------------------


@pytest.fixture(scope="module", autouse=True)
def digest_processes():
    """One interpreter per hash seed printing every case's digest, started
    with this module's first test so that they run beside its other tests."""
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
    yield processes
    for process in processes.values():
        process.kill()


@pytest.fixture(scope="module")
def digests_by_hash_seed(digest_processes):
    """``hash seed -> {name: (event count, sha256)}`` of every case."""
    digests = {}
    for hash_seed, process in digest_processes.items():
        out, _ = process.communicate(timeout=600)
        assert process.returncode == 0, hash_seed
        digests[hash_seed] = {
            name: (int(count), digest)
            for name, count, digest in map(str.split, out.splitlines())}
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
    first, second = program_at(7, 0), program_at(1, 3)
    (log,) = _interleaved_logs([first], backend, first.deadline_us)
    assert _interleaved_logs([first], backend, first.deadline_us) == [log]

    solo = [_interleaved_logs([program], backend, 10.0)[0]
            for program in (first, second)]
    assert _interleaved_logs([first, second], backend, 10.0) == solo


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(PINNED):
        print(name, *step_log_digest(name))
