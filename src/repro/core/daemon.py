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

A failed retry that still has spin budget, and an idle SQ poll, end in a
timed engine wait rather than one engine step per spin quantum or poll: the
daemon blocks on the key that could change a retry's outcome (a channel, the
SQ) until its last retry, the engine passes the retries in between without
stepping it, and when the wait ends the daemon replays those retries with
the same clock additions (``retry_times`` / ``replay``).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache, reduce
from itertools import accumulate
from operator import add

from repro.collectives.cost import DEFAULT_COST_MODEL
from repro.collectives.primitives import PRIMITIVES_PER_STEP, ExecOutcome
from repro.common.errors import SimulationError
from repro.core.config import (
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
from repro.core.scheduling import (
    TaskEntry,
    TaskQueue,
    make_ordering_policy,
    make_spin_policy,
)
from repro.gpusim.device import KernelActor
from repro.gpusim.engine import StepResult

_SUCCESS = ExecOutcome.SUCCESS
_ALL_DONE = ExecOutcome.ALL_DONE


@lru_cache(maxsize=1024)
def _spin_plan(remaining, quantum):
    """The retries a spin budget pays for before its last one.

    Returns ``(spin_times, polls_after, quantum_after, remaining)``: the
    spin time of each such retry's quantum, and, after ``k`` of them, the
    polls spent, the next quantum and the budget left.  The values follow
    ``_spin_or_preempt`` retry by retry; only the clock's start and rate differ
    between waits.
    """
    spin_times, polls_after, quantum_after, left = [], [0], [quantum], [remaining]
    while True:
        polls = min(quantum, SPIN_BATCH, remaining)
        if polls >= remaining:
            break  # this retry spends the last of the budget: preemption
        spin_times.append(polls * DEFAULT_COST_MODEL.poll_cost_us)
        remaining -= polls
        quantum = min(quantum * 2, SPIN_BATCH)
        polls_after.append(polls_after[-1] + polls)
        quantum_after.append(quantum)
        left.append(remaining)
    return (tuple(spin_times), tuple(polls_after), tuple(quantum_after),
            tuple(left))


class _Wait:
    """One timed wait: the retry state it started from (see
    ``DaemonKernel.retry_times``), with ``entry`` ``None`` for an idle wait."""

    __slots__ = ("entry", "key", "start", "rate", "plan", "arrival", "times")

    def __init__(self, entry, key, clock, plan=None, arrival=None):
        self.entry = entry
        self.key = key
        self.start = clock.now
        self.rate = clock.rate
        self.plan = plan
        self.arrival = arrival
        self.times = None


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

        self.task_queue = TaskQueue()
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
        self._arrival_counter += 1
        self.task_queue.append(entry)
        return entry

    # -- SQ fetching -----------------------------------------------------------------

    def _fetch_sqes(self):
        """Fetch every pending SQE; returns the number fetched."""
        fetched = 0
        while self.ctx.sq.pending(self.ctx.consumer_id) > 0:
            self.clock.advance(SQE_READ_COST_US)
            self.stats.sqe_read_time_us += SQE_READ_COST_US
            sqe = self.ctx.sq.pop(self.ctx.consumer_id)
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
            self.task_queue.record_length(entry.coll_id)
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
        self.ordering.order(self.task_queue)
        self.spin_policy.assign_initial(self.task_queue)
        self._queue_pos = 0
        self._pass_progress = False
        self._pass_needs_init = False
        return fetched

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
                return self._wait_for_sqes()

        if self._queue_pos >= len(self.task_queue):
            self._end_pass()
            return StepResult.progress("pass wrap")

        entry = self.task_queue[self._queue_pos]
        invocation = entry.invocation
        if invocation.coll.abandoned or invocation.is_aborted(entry.group_rank):
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
        load_cost = self.active_cache.load(entry.coll_id)
        stats = self.stats
        stats.preparing_time_us += load_cost

        # Run up to PRIMITIVES_PER_STEP primitives as executor bursts.  An
        # attempt may wait for in-flight data as long as the entry's spin
        # budget lasts: the budget left for the first attempt, the budget a
        # success restores for every later one.  While a success still boosts
        # the threshold, that budget differs per attempt, so the entry runs
        # bursts of one until the boost saturates.
        poll_cost_us = DEFAULT_COST_MODEL.poll_cost_us
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
                success_wait_us = budget * poll_cost_us
            count, outcome = executor.burst(
                clock, self.engine, limit,
                entry.spin_remaining * poll_cost_us, success_wait_us)
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
            self.active_cache.mark_progress(entry.coll_id)
            # Failed attempts charge no time and the step ends before the
            # completion / spin paths advance the clock, so the per-primitive
            # (after - before) deltas telescope into one subtraction.
            stats.primitives_executed += executed
            stats.execute_time_us += clock.now - burst_start_us
            self._pass_progress = True
            self._last_activity_us = clock.now
        if kind is _SUCCESS:
            return StepResult.progress(f"burst on coll {entry.coll_id}")
        if kind is _ALL_DONE:
            return self._complete_entry(entry)
        return self._spin_or_preempt(entry, outcome)

    def _spin_or_preempt(self, entry, outcome):
        # Exponential spin quantum: short waits (data arriving in a few
        # microseconds) cost little virtual time, long fruitless waits double
        # the quantum so they cost few retries before preemption.
        polls = min(entry.spin_quantum, SPIN_BATCH, entry.spin_remaining)
        if polls > 0:
            spin_time = polls * DEFAULT_COST_MODEL.poll_cost_us
            self.clock.advance(spin_time)
            entry.spin_remaining -= polls
            entry.spin_polls += polls
            self.stats.spin_polls += polls
            self.stats.spin_time_us += spin_time
            entry.spin_quantum = min(entry.spin_quantum * 2, SPIN_BATCH)
        if entry.spin_remaining <= 0:
            self._preempt_entry(entry)
            return StepResult.progress(f"preempted coll {entry.coll_id}")
        return self._wait_on_channel(entry, outcome)

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
                + entry.spin_remaining * DEFAULT_COST_MODEL.poll_cost_us):
            return StepResult.progress(detail)  # the next retry takes it
        plan = _spin_plan(entry.spin_remaining, entry.spin_quantum)
        if not plan[0]:
            return StepResult.progress(detail)  # the next retry is the last
        self.stats.spin_waits += 1
        self._wait = _Wait(entry, outcome.wait_key, self.clock, plan, arrival)
        keys = (outcome.wait_key,) if arrival is None else ()
        return StepResult.wait(keys, detail)

    def _wait_for_sqes(self):
        """Wait for an SQE (or the exit SQE) until the poll that quits."""
        detail = "idle: polling SQ"
        rate = self.clock.rate
        if (self.clock.now + SQ_POLL_COST_US * rate
                - self._last_activity_us > QUIT_PERIOD_US):
            return StepResult.progress(detail)  # the next poll quits
        self._wait = _Wait(None, self.ctx.submitted_key, self.clock)
        keys = (self.ctx.submitted_key, self.ctx.destroyed_key)
        return StepResult.wait(keys, detail)

    def retry_times(self):
        """Times of the retries the current timed wait stands for, computed
        with the clock's own additions; the last one spends the spin budget
        (or, for an idle wait, finds the quit period over)."""
        wait = self._wait
        if wait.times is None:
            if wait.entry is None:
                wait.times = self._idle_poll_times(wait)
            else:
                wait.times = self._spin_retry_times(wait)
        return wait.times

    @staticmethod
    def _spin_retry_times(wait):
        spin_times, _, _, remaining = wait.plan
        times = list(accumulate([spin * wait.rate for spin in spin_times],
                                initial=wait.start))
        if wait.arrival is not None:
            poll_cost_us = DEFAULT_COST_MODEL.poll_cost_us
            for index, now in enumerate(times):
                if not wait.arrival > now + remaining[index] * poll_cost_us:
                    del times[index + 1:]  # the retry that can take it
                    break
        return times

    def _idle_poll_times(self, wait):
        # Each idle poll adds the SQ poll cost, then the poll interval.
        interval = IDLE_POLL_INTERVAL_US * wait.rate
        polls = int(QUIT_PERIOD_US / interval) + 3  # more than ever needed
        marks = list(accumulate([SQ_POLL_COST_US * wait.rate, interval] * polls,
                                initial=wait.start))
        polled = marks[1::2]  # the clock right after each poll's SQ check
        # The first poll with ``polled - last_activity > QUIT_PERIOD_US``
        # (monotone in ``polled``): bisect, then settle the float boundary
        # with the exact test.
        last = self._last_activity_us
        index = bisect_right(polled, last + QUIT_PERIOD_US)
        while index > 0 and polled[index - 1] - last > QUIT_PERIOD_US:
            index -= 1
        while not polled[index] - last > QUIT_PERIOD_US:
            index += 1
        return marks[0:2 * index + 1:2]

    def replay(self, count):
        """Apply the first ``count`` retries of the current wait, all failed.

        A failed spin retry is a context-cache hit plus one spin quantum (the
        additions of ``_spin_or_preempt``, in order); an idle poll only moves
        the clock.  The retry times were computed with the clock's own
        additions at the wait's rate, so the clock lands on
        ``retry_times()[count]``; a rate change that did not settle the wait
        first would make that wrong, and raises.
        """
        wait, self._wait = self._wait, None
        if wait.rate != self.clock.rate:
            raise SimulationError(
                f"{self.name}: clock rate changed during a timed wait that "
                "was not settled first")
        entry = wait.entry
        polls = count
        if count:
            self.clock.now = wait.times[count]
            if entry is not None:
                spin_times, polls_after, quantum_after, remaining = wait.plan
                polls = polls_after[count]
                stats = self.stats
                # One addition per retry, in order, as _spin_or_preempt does.
                stats.spin_time_us = reduce(add, spin_times[:count],
                                            stats.spin_time_us)
                stats.spin_polls += polls
                entry.spin_polls += polls
                entry.spin_remaining = remaining[count]
                entry.spin_quantum = quantum_after[count]
                self.active_cache.stats.cache_hits += count
        obs = self.engine.obs
        if obs.enabled:
            if entry is None:
                name, coll_id = "idle SQ wait", None
            else:
                name, coll_id = "spin wait", entry.coll_id
            obs.recorder.record_event(self.clock.now, "daemon", name, {
                "coll_id": coll_id, "wait_key": wait.key, "polls": polls})

    def _preempt_entry(self, entry):
        self.active_cache.save_on_preempt(entry.coll_id, entry.progressed_since_load)
        entry.progressed_since_load = False
        entry.context_switches += 1
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
            invocation.invocation_id, entry.context_switches
        )
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
        for entry in self.task_queue.entries():
            if entry.progressed_since_load:
                self.active_cache.save_on_preempt(entry.coll_id, True)
                entry.progressed_since_load = False
        if final:
            self.stats.final_exits += 1
        else:
            self.stats.voluntary_quits += 1
        self.ctx.on_daemon_exit(self, final=final, remaining_entries=self.task_queue.entries())
        label = "final exit" if final else "voluntary quit"
        return self.complete(f"daemon {label}")
