"""The engine's timed wait against the step-by-step loop it stands for.

A spinner retries a mailbox at a fixed quantum until a token is there or its
budget runs out: a failed retry starts a timed wait on the mailbox key with a
deadline at its last retry.  Each scenario runs as is and through the
step-log oracle's reference seam (``test_step_log.stepped``), which queues
every wait's next retry as a step.  Both must leave the same trace of
effects, the same clocks and counters, and the same final time: the timed
wait changes how many steps the engine takes, nothing else.
Quanta and post times are exact binary fractions, so retries tie with other
actors' steps all the time and the queue order on ties is exercised.
"""

import random
from contextlib import nullcontext

import pytest

from repro.common.errors import DeadlockError
from repro.gpusim import Engine, StepResult
from repro.gpusim.engine import Actor
from test_step_log import stepped


class Spinner(Actor):
    """Takes ``rounds`` tokens from ``box``; passes each on to ``target``."""

    def __init__(self, name, boxes, trace, box, target=None, quantum=1.0,
                 budget=10, rounds=1, start=0.0):
        super().__init__(name, start)
        self.boxes = boxes
        self.trace = trace
        self.box = box
        self.target = target
        self.quantum = quantum
        self.budget = budget
        self.rounds = rounds
        self.left = budget
        self.polls = 0
        self.waits = 0
        self._times = None

    def step(self):
        if self.boxes[self.box]:
            self.boxes[self.box] -= 1
            self.clock.advance(0.5)
            self.trace.append((self.name, "got", self.now, self.polls))
            self.left = self.budget
            if self.target is not None:
                self.boxes[self.target] += 1
                self.engine.signal(self.target, self.now)
            self.rounds -= 1
            return StepResult.done() if self.rounds == 0 else StepResult.progress()
        if self.left == 0:
            self.trace.append((self.name, "gave up", self.now, self.polls))
            return StepResult.done()
        self.left -= 1
        self.polls += 1
        self.clock.advance(self.quantum)
        if self.left == 0:
            return StepResult.progress()
        # Retries at now, now + quantum, ...; the one that finds no budget
        # left gives up.
        times = [self.now]
        for _ in range(self.left):
            times.append(times[-1] + self.quantum * self.clock.rate)
        self._times = times
        self.waits += 1
        return StepResult.wait((self.box,))

    def retry_times(self):
        return self._times

    def replay(self, count):
        self.left -= count
        self.polls += count
        self.clock.now = self._times[count]
        self._times = None


class Poster(Actor):
    """Puts one token into ``box`` at each of ``times``."""

    def __init__(self, name, boxes, trace, box, times, signal_at=None):
        super().__init__(name)
        self.boxes = boxes
        self.trace = trace
        self.box = box
        self.times = list(times)
        self.signal_at = signal_at

    def step(self):
        if not self.times:
            return StepResult.done()
        if self.now < self.times[0]:
            return StepResult.sleep(self.times[0])
        self.times.pop(0)
        self.boxes[self.box] += 1
        self.trace.append((self.name, "post", self.now))
        signal_time = self.now if self.signal_at is None else self.signal_at
        self.engine.signal(self.box, signal_time)
        self.clock.advance(0.25)
        return StepResult.progress()


class Meddler(Actor):
    """At ``at_us``, does ``action(engine, victim, now)`` once."""

    def __init__(self, name, trace, at_us, victim, action):
        super().__init__(name)
        self.trace = trace
        self.at_us = at_us
        self.victim = victim
        self.action = action

    def step(self):
        if self.now < self.at_us:
            return StepResult.sleep(self.at_us)
        self.action(self.engine, self.victim, self.now)
        self.trace.append((self.name, "meddled", self.now, self.victim.now))
        return StepResult.done()


def _stall(engine, victim, now):
    engine.settle(victim)
    victim.clock.advance_to(max(victim.now, now) + 2.5)


def _slow_down(engine, victim, now):
    engine.settle(victim)
    victim.clock.rate = 2.0


def _kill(engine, victim, now):
    engine.kill_actor(victim, now)


def _wake(engine, victim, now):
    engine.wake_actor(victim, now + 0.75)


def run_scenario(build, timed, until_us=None, deadlock_mode="record"):
    """Run ``build(boxes, trace) -> actors`` with timed waits, or with every
    retry stepped."""
    boxes = {}
    trace = []
    actors = build(boxes, trace)
    engine = Engine(deadlock_mode=deadlock_mode)
    for actor in actors:
        engine.add_actor(actor)
    with nullcontext() if timed else stepped():
        end = engine.run(until_us=until_us)
    spinners = [(actor.name, actor.now, actor.polls, actor.left)
                for actor in actors if isinstance(actor, Spinner)]
    report = engine.deadlock_report
    return {
        "trace": trace,
        "end": end,
        "spinners": spinners,
        "deadlock": None if report is None else (report.time_us,
                                                 report.involved()),
        "steps": engine.step_count,
        "waits": sum(actor.waits for actor in actors
                     if isinstance(actor, Spinner)),
    }


def assert_same_as_stepping(build, until_us=None):
    stepped = run_scenario(build, timed=False, until_us=until_us)
    waited = run_scenario(build, timed=True, until_us=until_us)
    for field in ("trace", "end", "spinners", "deadlock"):
        assert waited[field] == stepped[field], field
    assert waited["steps"] <= stepped["steps"]
    return stepped, waited


def random_scenario(seed):
    rng = random.Random(seed)
    count = rng.randint(2, 6)
    specs = []
    for index in range(count):
        specs.append(dict(
            box=f"box{index}",
            target=(f"box{rng.randrange(count)}"
                    if rng.random() < 0.6 else None),
            quantum=rng.choice((0.5, 1.0, 1.0, 2.0)),
            budget=rng.randint(1, 30),
            rounds=rng.randint(1, 3),
            start=rng.choice((0.0, 0.0, 0.5, 1.0)),
        ))
    posts = [(f"box{rng.randrange(count)}",
              sorted(rng.choice((0.0, 0.5, 1.0)) * rng.randint(0, 40)
                     for _ in range(rng.randint(1, 3))))
             for _ in range(rng.randint(1, 3))]
    meddles = [(rng.randrange(count), rng.randint(0, 30) * 0.5,
                rng.choice((_stall, _slow_down, _kill, _wake)))
               for _ in range(rng.randint(0, 2))]

    def build(boxes, trace):
        for spec in specs:
            boxes[spec["box"]] = 0
        spinners = [Spinner(f"s{index}", boxes, trace, **spec)
                    for index, spec in enumerate(specs)]
        actors = list(spinners)
        actors += [Poster(f"p{index}", boxes, trace, box, times)
                   for index, (box, times) in enumerate(posts)]
        actors += [Meddler(f"m{index}", trace, at_us, spinners[victim], action)
                   for index, (victim, at_us, action) in enumerate(meddles)]
        return actors

    until_us = rng.choice((None, None, rng.randint(1, 40) * 0.5))
    return build, until_us


@pytest.mark.parametrize("seed", range(60))
def test_random_scenarios_match_stepping(seed):
    build, until_us = random_scenario(seed)
    assert_same_as_stepping(build, until_us)


def _single(poster_times, budget=10, signal_at=None, meddle=None):
    def build(boxes, trace):
        boxes["box"] = 0
        spinner = Spinner("s", boxes, trace, "box", budget=budget)
        actors = [spinner, Poster("p", boxes, trace, "box", poster_times,
                                  signal_at=signal_at)]
        if meddle is not None:
            at_us, action = meddle
            actors.append(Meddler("m", trace, at_us, spinner, action))
        return actors
    return build


def test_signal_before_deadline_wakes_the_waiter():
    # The poster's sleep entry at t=3 is converted to a ready entry after the
    # spinner's retry at t=3 was queued, so that retry misses the token and
    # the next one, at t=4, takes it.
    stepped, waited = assert_same_as_stepping(_single([3.0]))
    assert waited["trace"] == [("p", "post", 3.0), ("s", "got", 4.5, 4)]
    assert waited["waits"] == 1
    assert waited["steps"] < stepped["steps"]


def test_deadline_fires_when_no_signal_comes():
    stepped, waited = assert_same_as_stepping(_single([], budget=12))
    assert waited["trace"] == [("s", "gave up", 12.0, 12)]
    # The failed retry that starts the wait and the last one are the only
    # spinner steps (plus the poster's).
    assert waited["steps"] == 3
    assert stepped["steps"] == 3 + 11


def test_kill_while_waiting_replays_retries_up_to_the_kill():
    stepped, waited = assert_same_as_stepping(
        _single([], budget=20, meddle=(6.5, _kill)))
    # Retries at 0..6 ran; the one at 7 was queued when the kill came.
    assert waited["spinners"] == [("s", 7.0, 7, 13)]


def test_wake_actor_while_waiting():
    assert_same_as_stepping(_single([], budget=20, meddle=(6.5, _wake)))


@pytest.mark.parametrize("action", [_stall, _slow_down])
def test_settle_before_a_clock_change(action):
    assert_same_as_stepping(_single([9.0], budget=20, meddle=(4.0, action)))


def test_signal_does_not_advance_a_timed_waiters_clock():
    stepped, waited = assert_same_as_stepping(_single([3.0], signal_at=100.0))
    got = [event for event in waited["trace"] if event[1] == "got"]
    assert got == [("s", "got", 4.5, 4)]


class Ticker(Actor):
    """Steps once per microsecond; posts a token on its ``post_at`` tick."""

    def __init__(self, boxes, trace, post_at):
        super().__init__("ticker")
        self.boxes = boxes
        self.trace = trace
        self.post_at = post_at

    def step(self):
        if self.now == self.post_at:
            self.boxes["box"] += 1
            self.trace.append(("ticker", "post", self.now))
            self.engine.signal("box", self.now)
            return StepResult.done()
        self.clock.advance(1.0)
        return StepResult.progress()


@pytest.mark.parametrize("ticker_first, got_at", [(True, 3.5), (False, 4.5)])
def test_retry_tied_with_the_waking_step_keeps_queue_order(ticker_first,
                                                          got_at):
    # The ticker's post and the spinner's retry both fall at t=3; the one
    # registered first re-queues first each microsecond and so runs first.
    def build(boxes, trace):
        boxes["box"] = 0
        spinner = Spinner("s", boxes, trace, "box", budget=10)
        ticker = Ticker(boxes, trace, 3.0)
        return [ticker, spinner] if ticker_first else [spinner, ticker]

    _, waited = assert_same_as_stepping(build)
    assert waited["waits"] == 1
    assert waited["trace"][-1][:3] == ("s", "got", got_at)


def test_until_deadline_matches_stepping():
    for until_us in (0.5, 3.0, 7.25, 9.0):
        assert_same_as_stepping(_single([], budget=20), until_us=until_us)


class _QueueInspector(Actor):
    """Checks the one-live-entry invariant every quarter microsecond."""

    def __init__(self, until_us):
        super().__init__("inspector")
        self.until_us = until_us
        self.checks = 0

    def step(self):
        engine = self.engine
        live = [entry[-1] for entry in engine._queue if entry[-1] is not None]
        assert len(live) == len(set(live))
        assert engine.queue_stats()["live"] == len(live)
        self.checks += 1
        if self.now >= self.until_us:
            return StepResult.done()
        self.clock.advance(0.25)
        return StepResult.progress()


def test_every_actor_has_at_most_one_live_queue_entry():
    build, _ = random_scenario(3)
    inspector = _QueueInspector(20.0)

    def with_inspector(boxes, trace):
        return build(boxes, trace) + [inspector]

    waited = run_scenario(with_inspector, timed=True)
    assert inspector.checks > 50
    assert waited["waits"] > 0


class _Stuck(Actor):
    def step(self):
        return StepResult.blocked(["never"])


def test_stall_handler_never_reports_a_timed_waiter():
    def build(boxes, trace):
        boxes["box"] = 0
        return [Spinner("s", boxes, trace, "box", budget=30),
                _Stuck("stuck")]

    stepped, waited = assert_same_as_stepping(build)
    assert waited["deadlock"] == (30.0, ["stuck"])

    boxes, trace = {"box": 0}, []
    engine = Engine()
    engine.add_actor(Spinner("s", boxes, trace, "box", budget=30))
    engine.add_actor(_Stuck("stuck"))
    with pytest.raises(DeadlockError):
        engine.run()
    assert trace == [("s", "gave up", 30.0, 30)]


# -- the DFCCL daemon --------------------------------------------------------------


def test_daemon_spin_wait_is_one_flight_recorder_event():
    from repro.api import make_backend, wait_all
    from repro.gpusim import build_cluster
    from repro.gpusim.host import CpuCompute, HostProgram

    cluster = build_cluster("single-3090")
    backend = make_backend("dfccl", cluster)
    group = backend.new_group(list(range(4)))
    programs = []
    for rank in range(4):
        # Half the ranks submit in the opposite order: daemons spin on a
        # collective whose peers are busy with the other one, and preempt.
        keys = (0, 1) if rank % 2 == 0 else (1, 0)
        works = [group.all_reduce(rank, 1 << 18, key=key) for key in keys]
        programs.append(HostProgram([work.submit_op() for work in works]
                                    + wait_all(works)
                                    + backend.finalize_ops(rank)))
    cluster.add_hosts(programs)
    cluster.run()

    obs = cluster.engine.obs
    waits = [event for event in obs.recorder.marker_events()
             if event[2] == "daemon" and event[3] == "spin wait"]
    assert waits
    for _, _, _, _, attrs in waits:
        assert attrs["coll_id"] in (0, 1)
        assert attrs["wait_key"][0] in ("chan-readable", "chan-writable")
        assert attrs["polls"] >= 0
    waiting_steps = [event for event in obs.recorder.step_events()
                     if event[2] == "wait"]
    assert any(detail.startswith("spinning on coll") or
               detail == "idle: polling SQ" for *_, detail in waiting_steps)
    snapshot = obs.metrics.snapshot()
    assert snapshot["daemon_spin_waits"] == sum(
        backend.stats(rank).spin_waits for rank in range(4)) > 0

    # Rank 0 submits two broadcasts rooted at rank 1, which joins only after
    # 1 ms: every pass of rank 0's daemon preempts both, and each run of
    # such passes is one timed wait and one event.
    cluster = build_cluster("single-3090")
    backend = make_backend("dfccl", cluster)
    group = backend.new_group([0, 1])
    works = {rank: [group.broadcast(rank, 1 << 16, root=1, key=key)
                    for key in "AB"] for rank in (0, 1)}
    cluster.add_hosts([
        HostProgram([work.submit_op() for work in works[0]]
                    + wait_all(works[0]) + backend.finalize_ops(0)),
        HostProgram([CpuCompute(1000.0)]
                    + [work.submit_op() for work in works[1]]
                    + wait_all(works[1]) + backend.finalize_ops(1)),
    ])
    cluster.run()

    obs = cluster.engine.obs
    fruitless = [attrs for _, _, category, name, attrs
                 in obs.recorder.marker_events()
                 if category == "daemon" and name == "fruitless passes"]
    assert fruitless
    assert any(attrs["passes"] > 0 for attrs in fruitless)
    assert 0 < sum(attrs["preemptions"] for attrs in fruitless) \
        < backend.stats(0).preemptions
    assert 0 < sum(attrs["polls"] for attrs in fruitless) \
        < backend.stats(0).spin_polls
    waits = [event for event in obs.recorder.step_events()
             if event[2] == "wait" and event[3] == "fruitless passes"]
    assert len(waits) == len(fruitless)
    spin_waits = [event for event in obs.recorder.marker_events()
                  if event[2] == "daemon" and event[3] == "spin wait"]
    assert obs.metrics.snapshot()["daemon_spin_waits"] == (
        len(fruitless) + len(spin_waits)) == sum(
        backend.stats(rank).spin_waits for rank in (0, 1))
