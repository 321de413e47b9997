"""The DFCCL daemon kernel (Sec. 4).

The daemon kernel is a persistent GPU kernel that executes, preempts and
schedules every collective of its GPU:

* it periodically fetches SQEs from the submission queue and keeps the
  corresponding collectives in its task queue;
* it executes the scheduled collective's primitive sequence in a two-phase
  blocking manner: each primitive may busy-wait only up to its spin threshold,
  after which the collective is deemed stuck and preempted via context switch;
* completed collectives produce CQEs on the completion queue;
* when it cannot fetch new SQEs for a while and nothing in the task queue can
  progress (or the queue is empty), it voluntarily quits, releasing its GPU
  resources — which is what lets blocking GPU synchronization complete and
  prevents the synchronization-related deadlocks of Fig. 1(d).

This implements Algorithm 1 of the paper one-to-one; the scheduling policies
live in :mod:`repro.core.scheduling`.

The daemon has two timed engine waits, so that it takes no engine step per
spin quantum, idle poll or preemption.  A failed retry that still has spin
budget starts a spin wait.  A pass over the task queue that preempted every
entry starts a pass wait; so does an idle poll, which is a fruitless pass
over an empty task queue.  Either way the daemon blocks on the keys that
could change a retry's outcome (channels, the SQ) until its last retry (for
a pass wait, the pass start that quits).  The engine passes the retries in
between without stepping it, and when the wait ends the daemon replays those
retries with the same clock additions (``retry_times`` / ``replay``).  Equal
wait states share one read-only grid of retry times, so the engine passes
daemons waiting in lock-step as one cohort.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate
from operator import add

from repro.collectives.cost import POLL_COST_US
from repro.collectives.primitives import PRIMITIVES_PER_STEP, ExecOutcome
from repro.common.errors import SimulationError
from repro.core.config import (
    CONTEXT_LOAD_COST_US,
    IDLE_POLL_INTERVAL_US,
    INITIAL_SPIN_QUANTUM,
    QUIT_PERIOD_US,
    SPIN_BATCH,
    SQ_POLL_COST_US,
    SQE_PARSE_COST_US,
    SQE_READ_COST_US,
)
from repro.core.context import ActiveContextCache
from repro.core.queues import Cqe
from repro.core.scheduling import TaskEntry, make_ordering_policy, make_spin_policy
from repro.gpusim.device import KernelActor
from repro.gpusim.engine import StepResult

_SUCCESS = ExecOutcome.SUCCESS
_ALL_DONE = ExecOutcome.ALL_DONE


@lru_cache(maxsize=1024)
def _spin_plan(remaining, quantum):
    """The retries a spin budget pays for before its last one.

    Returns ``(spin_times, remaining)``: the spin time of each such retry's
    quantum, and the budget left after ``k`` of them.  The values follow
    ``_spin`` retry by retry; only the clock's start and rate differ between
    waits.
    """
    spin_times, left = [], [remaining]
    while True:
        polls = min(quantum, SPIN_BATCH, remaining)
        if polls >= remaining:
            break  # this retry spends the last of the budget: preemption
        spin_times.append(polls * POLL_COST_US)
        remaining -= polls
        quantum = min(quantum * 2, SPIN_BATCH)
        left.append(remaining)
    return tuple(spin_times), tuple(left)


class _PassPlan:
    """One pass over the task queue in which every retry fails and every
    entry is preempted, from the pass start (its SQ poll) to the next one.

    ``deltas`` are the pass's clock additions in order (the SQ poll, each
    missed context load, each retry's spin quantum) and ``starts`` the
    indices of ``accumulate(deltas, initial=pass_start)`` at which a step
    starts.  ``spins`` and ``loads`` are the additions ``spin_time_us`` and
    the load times receive, in order, and ``cache_hits`` the loads that hit.
    Each visit spends its entry's whole threshold in polls.  A pass over an
    empty queue is an idle poll: the SQ poll, then the poll interval, in
    one step.
    """

    __slots__ = ("thresholds", "deltas", "starts", "spins", "loads",
                 "cache_hits")

    def __init__(self, thresholds, hits):
        self.thresholds = thresholds
        self.deltas, self.starts, self.spins = [SQ_POLL_COST_US], [0], []
        self.cache_hits = 0
        for threshold, hit in zip(thresholds, hits):
            if not hit:
                self.deltas.append(CONTEXT_LOAD_COST_US)
            # The visit's first attempt and every retry but the last spin
            # one quantum each; the last spends what is left and preempts.
            spin_times, remaining = _spin_plan(threshold, INITIAL_SPIN_QUANTUM)
            for spin in spin_times:
                self.deltas.append(spin)
                self.spins.append(spin)
                self.starts.append(len(self.deltas))
            if remaining[-1]:
                spin = remaining[-1] * POLL_COST_US
                self.deltas.append(spin)
                self.spins.append(spin)
            self.starts.append(len(self.deltas))
            self.cache_hits += hit + len(spin_times)
        if thresholds:
            self.starts.pop()  # the next pass's start
        else:
            self.deltas.append(IDLE_POLL_INTERVAL_US)
        self.loads = [CONTEXT_LOAD_COST_US] * hits.count(False)


@lru_cache(maxsize=256)
def _pass_plan(thresholds, hits):
    """The :class:`_PassPlan` of per-position spin ``thresholds`` and
    context-cache ``hits``; the same in every fruitless pass."""
    return _PassPlan(thresholds, hits)


#: Most retry grids kept for sharing; lock-step waits begin close together.
_GRID_MEMO_SIZE = 64


@lru_cache(maxsize=_GRID_MEMO_SIZE)
def _spin_grid(start, rate, plan, arrival):
    """The retry times of a spin wait from ``start`` at clock ``rate`` with
    ``plan`` (a ``_spin_plan``), up to the retry that can take a head
    ``arrival`` (``None`` if there is none)."""
    spin_times, remaining = plan
    times = list(accumulate([spin * rate for spin in spin_times],
                            initial=start))
    if arrival is not None:
        for index, now in enumerate(times):
            if not arrival > now + remaining[index] * POLL_COST_US:
                del times[index + 1:]  # the retry that can take it
                break
    return tuple(times)


@lru_cache(maxsize=_GRID_MEMO_SIZE)
def _pass_grid(start, rate, plan, last_activity_us):
    """The retry times of a pass wait from ``start`` at clock ``rate``: pass
    after pass of ``plan``'s additions (a :class:`_PassPlan`), up to the
    first pass start whose SQ poll finds the quit period since
    ``last_activity_us`` over."""
    rated = [delta * rate for delta in plan.deltas]
    starts = plan.starts
    times = []
    while True:
        marks = list(accumulate(rated, initial=start))
        if marks[1] - last_activity_us > QUIT_PERIOD_US:
            times.append(start)
            return tuple(times)
        times.extend([marks[index] for index in starts])
        start = marks[-1]


class _Wait:
    """One timed wait: the retry state it started from (see
    ``DaemonKernel.retry_times``).  ``entry`` is the spinning entry of a spin
    wait, whose ``plan`` is its ``_spin_plan``; a pass wait has no entry and
    a :class:`_PassPlan`."""

    __slots__ = ("entry", "key", "start", "rate", "plan", "arrival", "times")

    def __init__(self, entry, key, clock, plan=None, arrival=None):
        self.entry = entry
        self.key = key
        self.start = clock.now
        self.rate = clock.rate
        self.plan = plan
        self.arrival = arrival
        self.times = None


def _version(channel):
    return len(channel.arrivals), channel.pushed_count, channel.invalidated


class DaemonKernel(KernelActor):
    """One generation of the daemon kernel on one GPU."""

    def __init__(self, rank_ctx, generation):
        device = rank_ctx.device
        super().__init__(
            name=f"dfccl-daemon-r{rank_ctx.global_rank}-g{generation}",
            device=device,
            grid_size=rank_ctx.daemon_grid_size,
            block_size=rank_ctx.daemon_block_size,
        )
        self.ctx = rank_ctx
        self.generation = generation
        self.stats = rank_ctx.stats

        #: The task queue (held in shared memory), in queue order.
        self.task_queue = []
        self.ordering = make_ordering_policy(rank_ctx.config)
        self.spin_policy = make_spin_policy(rank_ctx.config)
        self.active_cache = ActiveContextCache(clock=self.clock)

        self._queue_pos = 0
        self._pass_needs_init = True
        self._pass_progress = False
        self._last_pass_progress = True
        self._arrival_counter = 0
        self._final_exit_requested = False
        self._last_activity_us = 0.0
        #: The current timed wait, a :class:`_Wait`.
        self._wait = None
        #: The failed retry that preempted each entry in this pass, by
        #: ``id(entry)`` (see ``_failure``).
        self._failures = {}

    # -- lifecycle ----------------------------------------------------------------

    def on_launch(self, time_us):
        super().on_launch(time_us)
        self._last_activity_us = self.now
        self.stats.launches += 1
        # Re-adopt collectives that a previous daemon generation fetched but
        # did not complete; their dynamic contexts (executor positions) are
        # preserved in the global-memory context buffer.
        for invocation, priority in self.ctx.take_pending_entries():
            self._adopt_invocation(invocation, priority)

    def _adopt_invocation(self, invocation, priority):
        group_rank = self.ctx.group_rank_for(invocation.coll)
        entry = TaskEntry(
            invocation=invocation,
            group_rank=group_rank,
            executor=invocation.executor_for(group_rank),
            priority=priority,
            arrival_index=self._arrival_counter,
        )
        entry.slot = self.active_cache.slot_for(entry.coll_id)
        entry.burst_result = StepResult.progress(f"burst on coll {entry.coll_id}")
        self._arrival_counter += 1
        self.task_queue.append(entry)
        return entry

    # -- SQ fetching -----------------------------------------------------------------

    def _fetch_sqes(self):
        """Fetch every pending SQE; returns the number fetched."""
        fetched = 0
        while self.ctx.sq:
            self.clock.advance(SQE_READ_COST_US)
            self.stats.sqe_read_time_us += SQE_READ_COST_US
            sqe = self.ctx.sq.pop()
            self.stats.sqes_read += 1
            self.clock.advance(SQE_PARSE_COST_US)
            self.stats.preparing_time_us += SQE_PARSE_COST_US
            if sqe.exiting:
                self._final_exit_requested = True
                continue
            invocation = self.ctx.invocation_for_sqe(sqe)
            if invocation is None:
                # The collective was unregistered between the host's SQE push
                # and this fetch — a preempted job's rank process was killed
                # and its registrations torn down.  The stale SQE is dropped
                # exactly like an abandoned task entry would be.
                self.stats.stale_sqes_dropped += 1
                continue
            entry = self._adopt_invocation(invocation, sqe.priority)
            self.stats.task_queue_length_samples.append(
                (entry.coll_id, len(self.task_queue))
            )
            self._last_activity_us = self.now
            fetched += 1
        return fetched

    # -- pass management ----------------------------------------------------------------

    def _begin_pass(self):
        """Start a pass over the task queue: fetch, order and set thresholds.

        Returns the number of SQEs fetched at this pass boundary.
        """
        fetched = 0
        should_fetch = self.ordering.should_fetch(
            queue_empty=(len(self.task_queue) == 0),
            pass_made_progress=self._last_pass_progress,
            at_pass_start=True,
        )
        if should_fetch:
            self.clock.advance(SQ_POLL_COST_US)
            fetched = self._fetch_sqes()
        self._reset_pass()
        return fetched

    def _reset_pass(self):
        self.ordering.order(self.task_queue)
        self.spin_policy.assign_initial(self.task_queue)
        self._queue_pos = 0
        self._pass_progress = False
        self._pass_needs_init = False
        self._failures = {}

    def _end_pass(self):
        self._last_pass_progress = self._pass_progress
        self._pass_needs_init = True

    # -- main loop -------------------------------------------------------------------------

    def run_step(self):
        if self._pass_needs_init:
            fetched = self._begin_pass()

            if self._final_exit_requested and len(self.task_queue) == 0:
                return self._exit(final=True)

            # Voluntary quitting is decided only at pass boundaries: the daemon
            # quits once it has gone a full quit period without fetching an SQE
            # while the task queue is empty or nothing in it can progress.
            idle = len(self.task_queue) == 0
            stuck = not idle and not self._last_pass_progress
            if fetched == 0 and (idle or stuck):
                if self.now - self._last_activity_us > QUIT_PERIOD_US:
                    return self._exit(final=False)

            if idle:
                self.clock.advance(IDLE_POLL_INTERVAL_US)
                self._end_pass()
                return (self._wait_fruitless()
                        or StepResult.progress("idle: polling SQ"))

        entry = self.task_queue[self._queue_pos]
        invocation = entry.invocation
        if (invocation.coll.abandoned
                or entry.group_rank in invocation.aborted_ranks):
            # Recovery abandoned this collective: its channels span a dead
            # device and the executor can never progress.  Drop the entry and
            # abort-resolve this rank's part instead of spinning on it until
            # the end of time.
            self.task_queue.remove(entry)
            self.active_cache.evict(entry.coll_id)
            self.ctx.abort_invocation(invocation, self.now)
            self._pass_progress = True
            self._last_activity_us = self.now
            if self._queue_pos >= len(self.task_queue):
                self._end_pass()
            return StepResult.progress(f"dropped abandoned coll {entry.coll_id}")
        return self._execute_entry(entry)

    # -- entry execution ------------------------------------------------------------------------

    def _execute_entry(self, entry):
        stats = self.stats
        slot = entry.slot
        if slot.coll_id == entry.coll_id:
            # A hit charges nothing: ``active_cache.load`` without the lookup.
            self.active_cache.stats.cache_hits += 1
        else:
            stats.preparing_time_us += self.active_cache.load(entry.coll_id)

        # Run up to PRIMITIVES_PER_STEP primitives as executor bursts.  An
        # attempt may wait for in-flight data as long as the entry's spin
        # budget lasts: the budget left for the first attempt, the budget a
        # success restores for every later one.  While a success still boosts
        # the threshold, that budget differs per attempt, so the entry runs
        # bursts of one until the boost saturates.
        clock = self.clock
        executor = entry.executor
        steady_budget = self.spin_policy.steady_success_budget
        burst_start_us = clock.now
        executed = 0
        while True:
            budget = steady_budget(entry)
            if budget is None:
                limit, success_wait_us = 1, None
            else:
                limit = PRIMITIVES_PER_STEP - executed
                success_wait_us = budget * POLL_COST_US
            count, outcome = executor.burst(
                clock, self.engine, limit,
                entry.spin_remaining * POLL_COST_US, success_wait_us)
            if not count:
                break
            executed += count
            entry.progressed_since_load = True
            entry.spin_quantum = INITIAL_SPIN_QUANTUM
            self.spin_policy.on_success(entry)
            if outcome.outcome is not _SUCCESS or executed == PRIMITIVES_PER_STEP:
                break
        kind = outcome.outcome
        if executed:
            slot.dirty = True  # the context is resident: loaded above
            # Failed attempts charge no time and the step ends before the
            # completion / spin paths advance the clock, so the per-primitive
            # (after - before) deltas telescope into one subtraction.
            stats.primitives_executed += executed
            stats.execute_time_us += clock.now - burst_start_us
            self._pass_progress = True
            self._last_activity_us = clock.now
        if kind is _SUCCESS:
            return entry.burst_result
        if kind is _ALL_DONE:
            return self._complete_entry(entry)
        return self._spin_or_preempt(entry, outcome)

    def _spin_or_preempt(self, entry, outcome):
        if not self._spin(entry):
            return self._wait_on_channel(entry, outcome)
        self._failures[id(entry)] = self._failure(entry, outcome)
        self._preempt_entry(entry)
        if self._pass_needs_init and not self._last_pass_progress:
            wait = self._wait_fruitless()
            if wait is not None:
                return wait
        return StepResult.progress(f"preempted coll {entry.coll_id}")

    def _spin(self, entry):
        """Spin one quantum after a failed retry; ``True`` once the entry's
        budget is spent (it must be preempted)."""
        # Exponential spin quantum: short waits (data arriving in a few
        # microseconds) cost little virtual time, long fruitless waits double
        # the quantum so they cost few retries before preemption.
        polls = min(entry.spin_quantum, SPIN_BATCH, entry.spin_remaining)
        if polls > 0:
            spin_time = polls * POLL_COST_US
            self.clock.advance(spin_time)
            entry.spin_remaining -= polls
            self.stats.spin_polls += polls
            self.stats.spin_time_us += spin_time
            entry.spin_quantum = min(entry.spin_quantum * 2, SPIN_BATCH)
        return entry.spin_remaining <= 0

    @staticmethod
    def _failure(entry, outcome):
        """What a preempting retry failed on: the executor, the channel, its
        version ``(len(arrivals), pushed_count, invalidated)``, the wait key
        and a head arrival that was merely too late (``None`` if none)."""
        channel = outcome.channel
        return (entry.executor, channel, _version(channel), outcome.wait_key,
                entry.executor.late_arrival_us(outcome))

    # -- timed waits ---------------------------------------------------------------------------

    def _wait_on_channel(self, entry, outcome):
        """Wait for the channel that failed the retry, until the last retry.

        Each further retry would spin one quantum from the same state, so
        its time follows from the clock, rate, remaining budget and quantum
        alone.  Only a push or pop on the awaited channel can change what a
        retry sees (other changes settle the wait explicitly).  A head arrival
        that is merely too late becomes eligible at a retry the executor's own
        ``arrival > now + max_wait_us`` test finds, so that wait needs no
        key at all.
        """
        detail = f"spinning on coll {entry.coll_id}"
        arrival = entry.executor.late_arrival_us(outcome)
        if arrival is not None and not (
                arrival > self.clock.now
                + entry.spin_remaining * POLL_COST_US):
            return StepResult.progress(detail)  # the next retry takes it
        plan = _spin_plan(entry.spin_remaining, entry.spin_quantum)
        if not plan[0]:
            return StepResult.progress(detail)  # the next retry is the last
        self.stats.spin_waits += 1
        self._wait = _Wait(entry, outcome.wait_key, self.clock, plan, arrival)
        keys = (outcome.wait_key,) if arrival is None else ()
        return StepResult.wait(keys, detail)

    def _wait_fruitless(self):
        """Wait out the passes that would fail like the one that just ended,
        up to the pass start that quits; ``None`` to step the next pass.

        Every entry of that pass was preempted (an idle pass has none).  The
        next pass fails the same way if no SQE is pending, no exit was
        requested, and every entry is still live, has the executor it failed
        with, and its failed channel still has the version its preempting
        retry saw, with no head arrival that a later retry might find in
        time.  Then only a push or pop on one of those channels, an SQE (or
        the exit SQE) or a settle can change a retry's outcome, and each
        retry's time follows from the pass's thresholds and context-cache
        hits alone.
        """
        if (self._final_exit_requested
                or self.ctx.sq):
            return None
        clock = self.clock
        if (clock.now + SQ_POLL_COST_US * clock.rate
                - self._last_activity_us > QUIT_PERIOD_US):
            return None  # the next pass start quits
        queue = self.task_queue
        failures = self._failures
        keys = {}
        for entry in queue:
            failure = failures.get(id(entry))
            if failure is None:
                return None
            executor, channel, version, key, late = failure
            invocation = entry.invocation
            if (executor is not entry.executor or late is not None
                    or _version(channel) != version
                    or invocation.coll.abandoned
                    or invocation.is_aborted(entry.group_rank)):
                return None
            keys[key] = None
        cache = self.active_cache
        if not queue:
            detail = "idle: polling SQ"  # no load, so no write-back
        elif any(slot.dirty for slot in cache.slots):
            return None  # a miss would write a context back
        else:
            detail = "fruitless passes"
            self.stats.spin_waits += 1
        thresholds = tuple(map(self.spin_policy.initial_threshold,
                               range(len(queue))))
        hits = cache.hit_pattern([entry.coll_id for entry in queue])
        keys[self.ctx.submitted_key] = keys[self.ctx.destroyed_key] = None
        self._wait = _Wait(None, tuple(keys), clock,
                           _pass_plan(thresholds, hits))
        return StepResult.wait(self._wait.key, detail)

    def retry_times(self):
        """Times of the retries the current timed wait stands for, computed
        with the clock's own additions; the last one spends the spin budget
        (or, for a pass wait, finds the quit period over).  A tuple shared
        by every wait from the same state (read only)."""
        wait = self._wait
        if wait.times is None:
            if wait.entry is not None:
                wait.times = _spin_grid(wait.start, wait.rate, wait.plan,
                                        wait.arrival)
            else:
                wait.times = _pass_grid(wait.start, wait.rate, wait.plan,
                                        self._last_activity_us)
        return wait.times

    def replay(self, count):
        """Apply the first ``count`` retries of the current wait, all failed.

        A failed spin retry is a context-cache hit plus ``_spin``, replayed
        as such; a pass wait replays whole passes in aggregate and the rest
        step by step (``_replay_passes``).  The retry times were computed
        with the clock's own additions at the wait's rate, so the clock lands
        on ``retry_times()[count]``; a rate change that did not settle the
        wait first would make that wrong, and raises.
        """
        wait, self._wait = self._wait, None
        if wait.rate != self.clock.rate:
            raise SimulationError(
                f"{self.name}: clock rate changed during a timed wait that "
                "was not settled first")
        entry = wait.entry
        if entry is None:
            return self._replay_passes(wait, count)
        polls = self.stats.spin_polls
        self.active_cache.stats.cache_hits += count
        for _ in range(count):
            self._spin(entry)
        obs = self.engine.obs
        if obs.enabled:
            obs.recorder.record_event(self.clock.now, "daemon", "spin wait", {
                "coll_id": entry.coll_id, "wait_key": wait.key,
                "polls": self.stats.spin_polls - polls})

    def _replay_passes(self, wait, count):
        """Replay ``count`` steps of fruitless or idle passes: whole passes in
        aggregate, with float fields summed in clock order, then the
        remaining steps through the daemon's own spin and preemption code
        (none of which reads a channel or the SQ)."""
        plan = wait.plan
        stats = self.stats
        preemptions, polls = stats.preemptions, stats.spin_polls
        passes, steps = divmod(count, len(plan.starts))
        if passes:
            self.clock.now = wait.times[passes * len(plan.starts)]
            stats.spin_polls += sum(plan.thresholds) * passes
            stats.spin_time_us = reduce(add, plan.spins * passes,
                                        stats.spin_time_us)
            stats.preparing_time_us = reduce(add, plan.loads * passes,
                                             stats.preparing_time_us)
            stats.preemptions += len(self.task_queue) * passes
            cache = self.active_cache.stats
            misses = len(plan.loads) * passes
            cache.cache_hits += plan.cache_hits * passes
            cache.cache_misses += misses
            cache.load_time_us = reduce(add, plan.loads * passes,
                                        cache.load_time_us)
            cache.lazy_save_skips += len(self.task_queue) * passes
            for entry in self.task_queue:
                entry.invocation.add_context_switch(entry.group_rank, passes)
        for _ in range(steps):
            if self._pass_needs_init:
                self.clock.advance(SQ_POLL_COST_US)  # the poll finds no SQE
                self._reset_pass()
            entry = self.task_queue[self._queue_pos]
            stats.preparing_time_us += self.active_cache.load(entry.coll_id)
            if self._spin(entry):
                self._preempt_entry(entry)
        obs = self.engine.obs
        if not obs.enabled:
            return
        if plan.thresholds:
            obs.recorder.record_event(
                self.clock.now, "daemon", "fruitless passes", {
                    "passes": passes,
                    "preemptions": stats.preemptions - preemptions,
                    "polls": stats.spin_polls - polls})
        else:
            obs.recorder.record_event(
                self.clock.now, "daemon", "idle SQ wait", {
                    "coll_id": None, "wait_key": self.ctx.submitted_key,
                    "polls": count})

    def _preempt_entry(self, entry):
        self.active_cache.save_on_preempt(entry.coll_id, entry.progressed_since_load)
        entry.progressed_since_load = False
        entry.invocation.add_context_switch(entry.group_rank)
        self.stats.preemptions += 1
        self._queue_pos += 1
        if self._queue_pos >= len(self.task_queue):
            self._end_pass()

    def _complete_entry(self, entry):
        write_cost = self.ctx.cq.write_cost_us()
        self.clock.advance(write_cost)
        self.stats.cqe_write_time_us += write_cost
        self.stats.cqes_written += 1
        self.ctx.cq.push(
            Cqe(
                coll_id=entry.coll_id,
                invocation_id=entry.invocation.index,
                complete_time_us=self.now,
            )
        )
        invocation, group_rank = entry.invocation, entry.group_rank
        invocation.mark_complete(group_rank, self.now,
                                 invocation.executor_if_cached(group_rank))
        invocation.completion_signatures[group_rank] = (
            invocation.participant_signature())
        self.stats.record_invocation_switches(
            invocation.invocation_id,
            invocation.context_switches.get(group_rank, 0))
        self.active_cache.evict(entry.coll_id)
        self.task_queue.remove(entry)
        self.ctx.on_gpu_complete(invocation, self.now)
        self._pass_progress = True
        self._last_activity_us = self.now
        if self._queue_pos >= len(self.task_queue):
            self._end_pass()
        if self.engine is not None:
            self.engine.signal(self.ctx.cqe_key, self.now)
        return StepResult.progress(f"completed coll {entry.coll_id}")

    # -- exiting ---------------------------------------------------------------------------------

    def _exit(self, final):
        # Save the dynamic context of anything that progressed since its last save.
        for entry in self.task_queue:
            if entry.progressed_since_load:
                self.active_cache.save_on_preempt(entry.coll_id, True)
                entry.progressed_since_load = False
        if final:
            self.stats.final_exits += 1
        else:
            self.stats.voluntary_quits += 1
        self.ctx.on_daemon_exit(self, final=final, remaining_entries=self.task_queue)
        label = "final exit" if final else "voluntary quit"
        return self.complete(f"daemon {label}")
