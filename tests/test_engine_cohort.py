"""Cohort passing of timed waiters against one step per retry.

Spinners in lock-step that return one shared retry grid are passed by the
engine as a cohort: a round (one retry of each member) costs one heap
operation.  Each scenario runs three ways: one step per retry (the step-log
oracle's seam, ``test_step_log.stepped``), timed waits whose equal grids are
one shared object (cohorts), and timed waits with a grid of their own per
wait (one-by-one passing).  All three must leave the same trace, clocks,
counters, deadlock and final time.
"""

import random
from contextlib import nullcontext

import pytest

from repro.gpusim import Engine, StepResult
from repro.gpusim.engine import Actor
from test_engine_timed_wait import (
    Meddler,
    Poster,
    Spinner,
    _kill,
    _slow_down,
    _stall,
    _wake,
    run_scenario,
)
from test_step_log import stepped

MODES = ("stepped", "cohort", "solo")


class GridSpinner(Spinner):
    """A spinner whose retry grid is one object for every wait from the same
    state, through the shared ``grids`` memo (``None``: a grid per wait)."""

    def __init__(self, *args, grids=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.grids = grids

    def retry_times(self):
        times = tuple(self._times)
        if self.grids is None:
            return times
        return self.grids.setdefault(times, times)


class CohortInspector(Actor):
    """Checks every cohort's queue entry each half microsecond: the members
    share the entry, its actor slot is the first member, and no other live
    entry sorts inside the members' block of sequence numbers.  Records the
    queue with each cohort entry spread over its block, ``(time, kind, seq,
    name)`` per actor, which one-by-one passing must match number for
    number."""

    def __init__(self, until_us):
        super().__init__("inspector")
        self.until_us = until_us
        self.cohorts = 0
        self.queues = []

    def step(self):
        engine = self.engine
        keys = {tuple(entry[:3]) for entry in engine._queue
                if entry[-1] is not None}
        queue = []
        for entry in engine._queue:
            if entry[-1] is not None:
                cohort = engine._waits.get(entry[-1])
                members = [entry[-1]] if cohort is None else cohort.members
                queue += [(*entry[:2], entry[2] + offset, member.name)
                          for offset, member in enumerate(members)]
        self.queues.append(sorted(queue))
        for cohort in set(engine._waits.values()):
            members = cohort.members
            entry = engine._entries[members[0]]
            assert entry[-1] is members[0]
            assert all(engine._entries[member] is entry for member in members)
            time_us, kind, seq = entry[:3]
            assert not any((time_us, kind, seq + offset) in keys
                           for offset in range(1, len(members)))
            self.cohorts += len(members) > 1
        if self.now >= self.until_us:
            return StepResult.done()
        self.clock.advance(0.5)
        return StepResult.progress()


def scenario(spinners, posts=(), meddles=(), inspect_until=None):
    """``make(boxes, trace, grids) -> actors``: ``spinners`` are
    ``GridSpinner`` keyword dicts, each on its own box unless it names one;
    ``posts`` are ``(spinner index, times)``, ``meddles`` ``(spinner index,
    at_us, action)``."""

    def make(boxes, trace, grids):
        specs = [dict({"box": f"box{index}"}, **spec)
                 for index, spec in enumerate(spinners)]
        for spec in specs:
            boxes[spec["box"]] = 0
        actors = [GridSpinner(f"s{index}", boxes, trace, grids=grids,
                              **spec)
                  for index, spec in enumerate(specs)]
        actors += [Poster(f"p{number}", boxes, trace, specs[index]["box"],
                          times)
                   for number, (index, times) in enumerate(posts)]
        actors += [Meddler(f"m{number}", trace, at_us, actors[index], action)
                   for number, (index, at_us, action) in enumerate(meddles)]
        if inspect_until is not None:
            actors.append(CohortInspector(inspect_until))
        return actors

    return make


def _build(make, mode, seen):
    def build(boxes, trace):
        actors = make(boxes, trace, {} if mode == "cohort" else None)
        seen.extend(actors)
        return actors
    return build


def _pass_gauges(actors):
    """``(engine_retries_passed, engine_pass_heap_ops)`` of the actors' run."""
    metrics = actors[0].engine.obs.metrics.snapshot()
    return metrics["engine_retries_passed"], metrics["engine_pass_heap_ops"]


def assert_cohorts_match_stepping(make, until_us=None):
    """Run ``make`` in the three modes; returns each mode's pass gauges."""
    results, gauges, queues = {}, {}, {}
    for mode in MODES:
        seen = []
        results[mode] = run_scenario(_build(make, mode, seen),
                                     timed=mode != "stepped",
                                     until_us=until_us)
        gauges[mode] = _pass_gauges(seen)
        queues[mode] = [actor.queues for actor in seen
                        if isinstance(actor, CohortInspector)]
    for field in ("trace", "end", "spinners", "deadlock"):
        assert results["cohort"][field] == results["stepped"][field], field
        assert results["solo"][field] == results["stepped"][field], field
    assert results["cohort"]["steps"] == results["solo"]["steps"]
    assert queues["cohort"] == queues["solo"]
    assert gauges["stepped"] == (0, 0)
    passed, heap_ops = gauges["solo"]
    assert heap_ops == passed   # one heapreplace per retry
    assert gauges["cohort"][0] == passed
    return gauges


def lockstep(count, **spec):
    return [dict(spec) for _ in range(count)]


@pytest.mark.parametrize("count", [2, 3, 8])
def test_waiters_on_one_grid_pass_a_round_per_heap_operation(count):
    gauges = assert_cohorts_match_stepping(scenario(lockstep(count,
                                                             budget=12)))
    # Each spinner's first retry fails and waits over retries 1..12; it
    # passes 11 of them and gives up at the last.  The first round is the
    # lead's pass and ``count - 1`` joins, then ten rounds follow.
    assert gauges["cohort"] == (11 * count, 1 + (count - 1) + 10)


def test_grid_with_repeated_times():
    # A zero quantum queues every retry at the same time: a cohort's next
    # round ties with the members still to join it, so only the retry index
    # tells them apart.
    make = scenario(lockstep(3, quantum=0.0, budget=6) + lockstep(2, budget=6),
                    posts=[(1, [0.0]), (3, [2.0])])
    assert_cohorts_match_stepping(make)


@pytest.mark.parametrize("quanta", [(1.0, 2.0), (1.0, 0.5), (0.5, 1.5)])
def test_two_interleaved_cohorts_on_different_grids(quanta):
    spinners = [dict(quantum=quanta[index % 2], budget=10 + index % 2 * 4)
                for index in range(8)]
    posts = [(3, [4.0]), (4, [7.5])]
    gauges = assert_cohorts_match_stepping(scenario(spinners, posts))
    passed, heap_ops = gauges["cohort"]
    assert heap_ops < passed / 2


@pytest.mark.parametrize("victim", range(4))
def test_member_signalled_mid_stretch(victim):
    make = scenario(lockstep(4, budget=16, rounds=2),
                    posts=[(victim, [5.0, 9.5])], inspect_until=20.0)
    gauges = assert_cohorts_match_stepping(make)
    assert gauges["cohort"][1] < gauges["cohort"][0]


@pytest.mark.parametrize("action", [_kill, _wake, _stall, _slow_down])
@pytest.mark.parametrize("victim", [0, 2, 4])
def test_kill_wake_and_settle_on_a_member(action, victim):
    make = scenario(lockstep(5, budget=14), posts=[(1, [8.0])],
                    meddles=[(victim, 4.5, action)])
    assert_cohorts_match_stepping(make)


@pytest.mark.parametrize("until_us", [3.0, 5.0, 5.25, 11.0])
def test_run_until_lands_mid_round(until_us):
    # Three spinners at quantum 1 and three at quantum 0.5 share the retry
    # times 1, 2, 3, ...: a deadline there stops after the first of them.
    spinners = lockstep(3, budget=12) + lockstep(3, budget=20, quantum=0.5)
    assert_cohorts_match_stepping(scenario(spinners), until_us=until_us)


def _run_resumed(make, mode, until_us):
    boxes, trace = {}, []
    actors = make(boxes, trace, {} if mode == "cohort" else None)
    engine = Engine(deadlock_mode="record")
    for actor in actors:
        engine.add_actor(actor)
    with stepped() if mode == "stepped" else nullcontext():
        stop = engine.run(until_us=until_us)
        clocks = [(actor.name, actor.now) for actor in actors]
        end = engine.run()
    spinners = [(actor.name, actor.now, actor.polls, actor.left)
                for actor in actors if isinstance(actor, Spinner)]
    return trace, stop, clocks, end, spinners


@pytest.mark.parametrize("until_us", [2.0, 4.0, 6.5, 7.0])
def test_run_resumed_after_a_mid_round_stop(until_us):
    make = scenario(lockstep(4, budget=12) + lockstep(2, budget=9),
                    posts=[(1, [9.0]), (4, [5.5])])
    stepped = _run_resumed(make, "stepped", until_us)
    assert _run_resumed(make, "cohort", until_us) == stepped
    assert _run_resumed(make, "solo", until_us) == stepped


@pytest.mark.parametrize("budgets", [(12, 12, 8, 12), (8, 12, 12, 12),
                                     (12, 12, 12, 8)])
def test_member_whose_grid_is_a_strict_prefix(budgets):
    spinners = [dict(budget=budget) for budget in budgets]
    assert_cohorts_match_stepping(scenario(spinners, posts=[(1, [6.0])]))


def random_cohort_scenario(seed):
    """Groups of lock-step spinners, with posts, meddling and a deadline."""
    rng = random.Random(seed)
    spinners = []
    for _ in range(rng.randint(1, 3)):
        spec = dict(quantum=rng.choice((0.5, 1.0, 1.0, 2.0)),
                    budget=rng.randint(2, 24), rounds=rng.randint(1, 2),
                    start=rng.choice((0.0, 0.0, 0.5)))
        spinners += lockstep(rng.randint(1, 6), **spec)
    rng.shuffle(spinners)
    count = len(spinners)
    for spec in spinners:
        if rng.random() < 0.3:
            spec["target"] = f"box{rng.randrange(count)}"
    posts = [(rng.randrange(count),
              sorted(rng.randint(0, 48) * 0.5
                     for _ in range(rng.randint(1, 2))))
             for _ in range(rng.randint(0, 3))]
    meddles = [(rng.randrange(count), rng.randint(0, 40) * 0.5,
                rng.choice((_stall, _slow_down, _kill, _wake)))
               for _ in range(rng.randint(0, 2))]
    until_us = rng.choice((None, None, rng.randint(1, 40) * 0.5))
    return scenario(spinners, posts, meddles, inspect_until=20.0), until_us


@pytest.mark.parametrize("seed", range(40))
def test_random_cohort_scenarios_match_stepping(seed):
    make, until_us = random_cohort_scenario(seed)
    assert_cohorts_match_stepping(make, until_us)


def test_random_scenarios_form_cohorts():
    passed = heap_ops = inspected = 0
    for seed in range(40):
        make, until_us = random_cohort_scenario(seed)
        seen = []
        run_scenario(_build(make, "cohort", seen), timed=True,
                     until_us=until_us)
        gauges = _pass_gauges(seen)
        passed += gauges[0]
        heap_ops += gauges[1]
        inspected += sum(actor.cohorts for actor in seen
                         if isinstance(actor, CohortInspector))
    assert heap_ops < passed * 0.6
    assert inspected > 0


# -- the DFCCL daemon's grid memo --------------------------------------------------


def _dfccl_tree_gauges():
    """``(engine_retries_passed, engine_pass_heap_ops)`` of a 64-rank dfccl
    tree all-reduce (``test_step_log.py`` checks its log against stepping)."""
    from repro.obs import Observability
    from repro.testing import collective_program
    from repro.testing.differential import replay_program

    program = collective_program(
        "fat-tree-64", 64, "all_reduce", 1 << 20, rounds=2,
        chunk_bytes=128 << 10, algorithm="tree")
    obs = Observability()
    replay_program(program, "dfccl", observability=obs)
    snapshot = obs.metrics.snapshot()
    return snapshot["engine_retries_passed"], snapshot["engine_pass_heap_ops"]


def test_grid_memo_is_cache_neutral(monkeypatch):
    from repro.core import daemon

    passed, heap_ops = _dfccl_tree_gauges()
    monkeypatch.setattr(daemon, "_spin_grid", daemon._spin_grid.__wrapped__)
    monkeypatch.setattr(daemon, "_pass_grid", daemon._pass_grid.__wrapped__)
    # Without the memo every wait has a grid of its own: one heap operation
    # per passed retry.  With it, lock-step daemons pass as cohorts.
    assert _dfccl_tree_gauges() == (passed, passed)
    assert 0 < heap_ops < passed
