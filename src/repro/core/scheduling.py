"""Adaptive collective scheduling (Sec. 4.3, Algorithm 1).

The *stickiness* of a collective — how willing the daemon kernel is to wait
for its progress — is controlled by two cooperating policies:

* the **ordering policy** decides when SQEs are fetched from the SQ and how
  the task queue is ordered (FIFO by default, priority based when the user
  assigned priorities);
* the **spin-threshold policy** assigns each collective's primitives a spin
  threshold: the adaptive policy gives the queue-front collective the largest
  initial threshold, decays it with queue position, and boosts it after every
  successful primitive, which makes all GPUs converge on executing the same
  collective (decentralized dynamic gang-scheduling).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import (
    INITIAL_SPIN_QUANTUM,
    INITIAL_SPIN_THRESHOLD,
    MIN_SPIN_THRESHOLD,
    NAIVE_SPIN_THRESHOLD,
    SPIN_POSITION_DECAY,
    SPIN_SUCCESS_BOOST,
    SPIN_THRESHOLD_CEILING,
)


@dataclass(eq=False)
class TaskEntry:
    """One collective in the daemon kernel's task queue (a plain list held
    in shared memory).  Entries compare by identity, so ``list.remove``
    removes exactly the given entry."""

    invocation: object
    group_rank: int
    executor: object
    priority: int = 0
    arrival_index: int = 0
    spin_threshold: int = 0
    spin_remaining: int = 0
    #: Current spin quantum (polls burned per failed retry); grows
    #: exponentially while a primitive keeps failing so that short waits cost
    #: little virtual time and long waits few retries.
    spin_quantum: int = INITIAL_SPIN_QUANTUM
    progressed_since_load: bool = False
    #: The invocation's collective id, read on every daemon step.
    coll_id: object = field(init=False)
    #: Set by the daemon that adopts the entry: the active-context slot the
    #: collective maps to, and the one result of every step that ends in a
    #: full burst.
    slot: object = field(init=False, default=None)
    burst_result: object = field(init=False, default=None)

    def __post_init__(self):
        self.coll_id = self.invocation.coll_id

    def reset_spin(self, threshold):
        self.spin_threshold = int(threshold)
        self.spin_remaining = int(threshold)
        self.spin_quantum = INITIAL_SPIN_QUANTUM


class FifoOrderingPolicy:
    """Default ordering: empty the task queue quickly.

    SQEs are fetched when the task queue is empty or when a whole pass over
    the queue made no progress; new collectives are appended at the end.
    """

    name = "fifo"

    def should_fetch(self, queue_empty, pass_made_progress, at_pass_start):
        return queue_empty or (at_pass_start and not pass_made_progress)

    def order(self, task_queue):
        return None  # FIFO keeps arrival order.


class PriorityOrderingPolicy:
    """Priority ordering: check the SQ frequently, keep the queue sorted."""

    name = "priority"

    def should_fetch(self, queue_empty, pass_made_progress, at_pass_start):
        return queue_empty or at_pass_start

    def order(self, task_queue):
        """Stable sort: higher priority first, FIFO within a priority level."""
        task_queue.sort(key=lambda entry: (-entry.priority, entry.arrival_index))


class _SpinPolicy:
    """What both spin policies share: a pass gives each queue position its
    ``initial_threshold`` (the daemon's fruitless-pass plan reads the same)."""

    def assign_initial(self, task_queue):
        for position, entry in enumerate(task_queue):
            entry.reset_spin(self.initial_threshold(position))


class NaiveSpinPolicy(_SpinPolicy):
    """Fixed spin threshold for every collective (the Fig. 11 'spike' baseline)."""

    name = "naive"

    def initial_threshold(self, position):
        return NAIVE_SPIN_THRESHOLD

    def on_success(self, entry):
        entry.spin_remaining = entry.spin_threshold

    def steady_success_budget(self, entry):
        """The spin budget every success restores: the fixed threshold."""
        return entry.spin_threshold


class AdaptiveSpinPolicy(_SpinPolicy):
    """The adaptive stickiness adjustment of Sec. 4.3.

    The front-of-queue collective gets the largest initial spin threshold and
    each subsequent position a progressively lower one; after a successful
    primitive the collective's threshold is multiplied by
    ``SPIN_SUCCESS_BOOST`` so that all GPUs keep waiting for the collective
    that is actually making progress.
    """

    name = "adaptive"

    def __init__(self):
        self._steady = {}

    def initial_threshold(self, position):
        threshold = INITIAL_SPIN_THRESHOLD * (SPIN_POSITION_DECAY ** position)
        return int(max(MIN_SPIN_THRESHOLD, threshold))

    def _boosted(self, threshold):
        if threshold < SPIN_THRESHOLD_CEILING:
            boosted = min(int(threshold * SPIN_SUCCESS_BOOST),
                          int(SPIN_THRESHOLD_CEILING))
            if boosted > threshold:
                return boosted
        return threshold

    def on_success(self, entry):
        entry.spin_threshold = entry.spin_remaining = self._boosted(
            entry.spin_threshold)

    def steady_success_budget(self, entry):
        """The spin budget every further success restores, or ``None`` while
        a success would still raise ``entry``'s threshold.

        The boost saturates at the ceiling after at most two successes.  From
        then on every attempt after a success waits the same budget, so the
        daemon can run them as one executor burst and apply ``on_success``
        once for all of them.  The daemon asks once per step, and thresholds
        take a handful of values (per queue position, then boosted), so the
        answers are kept per threshold.
        """
        threshold = entry.spin_threshold
        try:
            return self._steady[threshold]
        except KeyError:
            after = self._boosted(threshold)
            budget = after if self._boosted(after) == after else None
            self._steady[threshold] = budget
            return budget


def make_ordering_policy(config):
    if config.ordering == "priority":
        return PriorityOrderingPolicy()
    return FifoOrderingPolicy()


def make_spin_policy(config):
    if config.spin_policy == "naive":
        return NaiveSpinPolicy()
    return AdaptiveSpinPolicy()


@dataclass
class DaemonStats:
    """Aggregated daemon-kernel statistics for one rank (Figs. 7 and 11)."""

    launches: int = 0
    voluntary_quits: int = 0
    final_exits: int = 0
    sqes_read: int = 0
    #: SQEs whose collective was unregistered before the fetch (a preempted
    #: job's rank process was killed between push and fetch); dropped lazily.
    stale_sqes_dropped: int = 0
    cqes_written: int = 0
    preemptions: int = 0
    spin_polls: int = 0
    #: Timed waits a spinning daemon entered (each stands for one or more
    #: spin retries, or for a run of fruitless passes, that cost no engine
    #: step).
    spin_waits: int = 0
    primitives_executed: int = 0
    sqe_read_time_us: float = 0.0
    preparing_time_us: float = 0.0
    cqe_write_time_us: float = 0.0
    execute_time_us: float = 0.0
    spin_time_us: float = 0.0
    task_queue_length_samples: list = field(default_factory=list)
    #: Per completed invocation: every preemption of it on this rank, across
    #: the daemon generations that adopted it (Fig. 11).
    context_switches_per_invocation: dict = field(default_factory=dict)

    def record_invocation_switches(self, invocation_id, count):
        self.context_switches_per_invocation[invocation_id] = count

    def mean_cqe_write_time_us(self):
        if not self.cqes_written:
            return 0.0
        return self.cqe_write_time_us / self.cqes_written

    def mean_sqe_read_time_us(self):
        if not self.sqes_read:
            return 0.0
        return self.sqe_read_time_us / self.sqes_read
