"""Conservative discrete-event engine with wait-for-graph deadlock detection.

The engine owns a set of :class:`Actor` objects (GPUs, resident kernels, host
threads, network pollers).  Each actor has a local :class:`VirtualClock`; the
engine repeatedly steps the *runnable* actor with the smallest local time so
that all clocks stay within one quantum of each other.

An actor's ``step`` returns a :class:`StepResult`:

``PROGRESS``
    The actor did useful work and advanced its own clock.
``BLOCKED``
    The actor cannot proceed until one of the given *wait keys* is signalled
    by another actor (e.g. "a kernel on GPU 3 completed", "connector 7 has
    data").  Blocked actors are not stepped again until a signal arrives.
``SLEEP``
    The actor wants to be woken at an absolute virtual time (used for polling
    threads and voluntary-quit timers).
``WAIT``
    A timed wait: the actor is blocked on its wait keys (possibly none) and
    stands for a run of identical retries that would each fail until a key
    is signalled (a daemon kernel spinning on a channel).  Its queue entry
    sits at its next retry; the engine passes each retry without stepping
    the actor, moving the entry to the following one, until a signal, a
    :meth:`Engine.settle` or the last retry (its deadline) ends the wait.
    The actor then replays the retries that were passed (see
    :class:`Actor`), so its clock and counters land exactly where the
    step-by-step loop would have left them, and its next retry is a step.
    Waiters queued back to back at the same retry of one shared grid are
    passed together, as a cohort (see :class:`_Cohort`).
``DONE``
    The actor finished.  It is removed from scheduling and the engine drops
    its reference, so a completed actor (say, one daemon-kernel generation of
    thousands in a long training run) is freed once nothing else holds it.
    Actors killed by fault injection stay registered: they model crashed
    processes that deadlock analysis still resolves by name.

When every live actor is blocked and none is sleeping, no signal can ever
arrive: the system is deadlocked.  The engine then either raises
:class:`DeadlockError` or records the deadlock and terminates, depending on
``deadlock_mode``.

Scheduling lives in ONE indexed event queue.  Every schedulable actor has at
most one live heap entry — ``(time, kind, seq, actor)`` where *kind* orders
sleepers before ready actors on time ties, exactly the order the old
ready/sleeping double heap produced by eagerly waking due sleepers.
Rescheduling or killing an actor invalidates its entry in place (the actor
slot is cleared) instead of leaving the old entry to be lazily skipped; when
stale entries outnumber live ones the heap is compacted, so cancelled or
killed actors can never make the queue grow without bound (fuzzing at
hundreds of ranks pops millions of entries — the queue must stay dense).
A cohort of timed waiters is the one exception: its members share one entry.

The engine also numbers the run's objects: each kind of id (channels,
communicators, ops) counts from 0 on each engine, so a program's wait keys
and step details, and thus its event log, do not depend on what ran before
it in the process.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import weakref
from collections import defaultdict
from dataclasses import dataclass, field

from repro.common.errors import DeadlockError, SimulationError
from repro.common.vtime import VirtualClock
from repro.obs import Observability

#: Most steps one engine runs; more means a livelock in a simulated
#: component, and ``run`` raises :class:`SimulationError`.
MAX_STEPS = 50_000_000

#: Entry kinds in the unified event queue.  Sleepers sort before ready actors
#: at equal times: the old scheduler woke every due sleeper (converting it to
#: a ready entry with a fresh sequence number) before stepping ready actors.
_KIND_SLEEP = 0
_KIND_READY = 1

#: Index of the actor slot inside a queue entry (cleared when invalidated).
_ENTRY_ACTOR = 3

#: Compaction threshold: never compact below this many stale entries (tiny
#: queues churn entries constantly and rebuilds would dominate).
_COMPACT_MIN_STALE = 64

#: Returned by ``Engine._pop_runnable`` when passing a timed waiter's retry
#: took the horizon to ``run``'s deadline.
_UNTIL = object()


class StepStatus(enum.Enum):
    """Outcome of a single actor step."""

    PROGRESS = "progress"
    BLOCKED = "blocked"
    SLEEP = "sleep"
    WAIT = "wait"
    DONE = "done"


_PROGRESS = StepStatus.PROGRESS


@dataclass(slots=True)
class StepResult:
    """Value returned by :meth:`Actor.step`."""

    status: StepStatus
    wait_keys: tuple = ()
    wake_at: float = 0.0
    detail: str = ""

    @classmethod
    def progress(cls, detail=""):
        return cls(StepStatus.PROGRESS, detail=detail)

    @classmethod
    def blocked(cls, wait_keys, detail=""):
        keys = tuple(wait_keys) if not isinstance(wait_keys, (str, tuple)) else wait_keys
        if isinstance(keys, str):
            keys = (keys,)
        if not keys:
            raise ValueError("a BLOCKED step must name at least one wait key")
        return cls(StepStatus.BLOCKED, wait_keys=tuple(keys), detail=detail)

    @classmethod
    def sleep(cls, wake_at, detail=""):
        return cls(StepStatus.SLEEP, wake_at=float(wake_at), detail=detail)

    @classmethod
    def wait(cls, wait_keys, detail=""):
        """A timed wait on ``wait_keys`` (a tuple, possibly empty) until the
        actor's last retry (its ``retry_times()``)."""
        return cls(StepStatus.WAIT, wait_keys=wait_keys, detail=detail)

    @classmethod
    def done(cls, detail=""):
        return cls(StepStatus.DONE, detail=detail)


class _Cohort:
    """Timed waiters passed together, a round (one retry each) at a time.

    The members wait at the same index ``passed`` of the same retry grid
    ``times`` (one shared, read-only object) and hold one queue entry.  Its
    sequence number is the first of a block, one per member in order: the
    numbers one-by-one passing would give them, so no other entry sorts
    between two members and each round costs one heap operation.  A wait
    starts as a cohort of one.  A waiter joins the cohort passed just before
    it when it sits at the same retry of the same grid; it leaves, queued at
    its place in the block, when its wait ends.
    """

    __slots__ = ("members", "times", "passed")

    def __init__(self, members, times=None, passed=0):
        self.members = members
        self.times = times
        self.passed = passed


class Actor:
    """Base class for anything the engine schedules.

    ``daemon`` actors are service actors (GPU launch schedulers, completion
    pollers): they never keep the simulation alive, and being blocked forever
    is their normal idle state, so they are ignored by deadlock detection.

    An actor that returns a ``WAIT`` step implements two more methods:
    ``retry_times()``, the increasing times of the retries the wait stands
    for (the first is the actor's clock, the last its deadline), and
    ``replay(count)``, which applies the effects of the first ``count`` of
    them, all failed, leaving the clock at ``retry_times()[count]``.
    Actors in lock-step should return one shared object for equal grids (it
    is never mutated): the engine passes waiters on the same grid object as
    a cohort.
    """

    daemon = False

    def __init__(self, name, start_time_us=0.0):
        self.name = name
        self.clock = VirtualClock(start_time_us)
        self.engine = None
        self.finished = False

    @property
    def now(self):
        return self.clock.now

    def step(self):
        """Advance the actor by one quantum.  Subclasses must override."""
        raise NotImplementedError

    def on_registered(self, engine):
        """Hook invoked when the actor joins an engine."""
        self.engine = engine

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} t={self.now:.2f}us>"


@dataclass
class DeadlockReport:
    """Description of a detected deadlock."""

    time_us: float
    blocked_actors: list = field(default_factory=list)
    wait_graph: dict = field(default_factory=dict)

    def __post_init__(self):
        # The names outlive the actors: Engine.close empties blocked_actors.
        self._names = [actor.name for actor in self.blocked_actors]

    def involved(self):
        """Names of the actors that were blocked when the deadlock was found."""
        return list(self._names)


class Engine:
    """Smallest-local-clock-first scheduler over a set of actors."""

    def __init__(self, deadlock_mode="raise", observability=None):
        if deadlock_mode not in ("raise", "record"):
            raise ValueError(f"unknown deadlock_mode {deadlock_mode!r}")
        self.deadlock_mode = deadlock_mode
        #: The observability hub — always present; pass
        #: ``Observability(enabled=False)`` to opt out of recording.
        self.obs = observability if observability is not None else Observability()
        #: Hot-loop alias: the flight-recorder event ring, or ``None`` when
        #: observability is disabled (one branch per step either way).
        self._event_ring = self.obs.recorder.ring if self.obs.enabled else None
        #: Registered actors minus those that completed (killed ones stay),
        #: in registration order: an insertion-ordered dict used as a set, so
        #: dropping an actor on DONE is O(1).
        self._actors = {}
        #: The unified event queue: a heap of ``[time, kind, seq, actor]``
        #: entries.  ``self._entries`` maps each schedulable actor to its one
        #: live entry; invalidation clears the entry's actor slot.
        self._queue = []
        self._entries = {}
        self._stale = 0
        self._compactions = 0
        self._ready_count = 0
        self._live_worker_count = 0
        self._blocked = {}
        #: Timed waiters: actor -> its :class:`_Cohort`, in the order the
        #: waits began.
        self._waits = {}
        self._waiters = {}
        #: Public read-only alias of the waiter table, keyed by wait key.
        #: Hot paths (the primitive executor signals once or twice per
        #: primitive) test ``key in engine.waiters_by_key`` before paying the
        #: ``signal()`` call — a signal nobody waits on is a no-op.  The
        #: engine only ever mutates this dict in place, never rebinds it, so
        #: the alias stays valid for the engine's lifetime; external code
        #: must treat it as read-only.
        self.waiters_by_key = self._waiters
        #: The next queue sequence number.
        self._seq = 0
        self._steps = 0
        #: Retries passed in timed waits that ended, and the heap operations
        #: passing cost (rounds, joins and leaves).
        self._retries_passed = 0
        self._pass_heap_ops = 0
        self._horizon = 0.0
        self.deadlock_report = None
        self._signals = 0
        #: One id counter per kind of object, and the objects kept for
        #: wait-key attribution, by ``(kind, id)``.
        self._ids = defaultdict(itertools.count)
        self._objects = weakref.WeakValueDictionary()
        #: Names of the gauges this engine registered (frozen by close).
        self._gauge_names = ()
        if self.obs.enabled:
            registry = self.obs.metrics
            self._gauge_names = (
                registry.gauge_fn("engine_steps", lambda: self._steps),
                registry.gauge_fn("engine_queue_entries",
                                  lambda: len(self._queue)),
                registry.gauge_fn("engine_queue_live",
                                  lambda: len(self._queue) - self._stale),
                registry.gauge_fn("engine_queue_stale", lambda: self._stale),
                registry.gauge_fn("engine_queue_compactions",
                                  lambda: self._compactions),
                registry.gauge_fn("engine_queue_ready",
                                  lambda: self._ready_count),
                registry.gauge_fn("engine_signals", lambda: self._signals),
                registry.gauge_fn("engine_retries_passed",
                                  self._count_retries_passed),
                registry.gauge_fn("engine_pass_heap_ops",
                                  lambda: self._pass_heap_ops),
            )

    # -- registration -------------------------------------------------------

    def add_actor(self, actor):
        """Register an actor and make it runnable."""
        self._actors[actor] = None
        actor.on_registered(self)
        if not actor.daemon and not actor.finished:
            self._live_worker_count += 1
        self._observe_time(actor.now)
        self._schedule(actor, actor.now, _KIND_READY)
        return actor

    def actors(self):
        """Registered actors that have not completed, in registration order.

        An actor whose step returned ``DONE`` is gone from this list (the
        engine keeps no reference to it); an actor stopped by
        :meth:`kill_actor` stays, marked ``finished``, because a crashed
        process is still part of the wait-for graph.
        """
        return list(self._actors)

    # -- object ids -----------------------------------------------------------

    def next_id(self, kind):
        """The next id of ``kind``; every kind counts from 0 on each engine."""
        return next(self._ids[kind])

    def keep(self, kind, obj_id, obj):
        """Remember ``obj``, weakly, as ``kind`` number ``obj_id``."""
        self._objects[kind, obj_id] = obj

    def object_by_id(self, kind, obj_id):
        """The object kept as ``kind`` number ``obj_id``, or ``None`` if gone
        (fault analysis resolves a wait key to the actor that would have
        signalled it)."""
        return self._objects.get((kind, obj_id))

    # -- event queue helpers -------------------------------------------------

    def _schedule(self, actor, time_us, kind):
        """Give ``actor`` a (new) live queue entry, invalidating any old one."""
        old = self._entries.get(actor)
        if old is not None:
            self._invalidate(old)
        entry = [time_us, kind, self._seq, actor]
        self._seq += 1
        self._entries[actor] = entry
        heapq.heappush(self._queue, entry)
        if kind == _KIND_READY:
            self._ready_count += 1

    def _invalidate(self, entry):
        """Mark a queue entry stale in place; compact when stale dominates."""
        if entry[_ENTRY_ACTOR] is None:
            return
        if entry[1] == _KIND_READY:
            self._ready_count -= 1
        entry[_ENTRY_ACTOR] = None
        self._stale += 1
        if self._stale > _COMPACT_MIN_STALE and self._stale * 2 > len(self._queue):
            self._compact()

    def _discard_entry(self, actor):
        """Invalidate the live entry of ``actor``, if any."""
        entry = self._entries.pop(actor, None)
        if entry is not None:
            self._invalidate(entry)

    def _compact(self):
        """Rebuild the heap from live entries only, in place (``run`` and
        ``_pop_runnable`` hold the list)."""
        queue = self._queue
        queue[:] = [entry for entry in queue if entry[_ENTRY_ACTOR] is not None]
        heapq.heapify(queue)
        self._stale = 0
        self._compactions += 1

    def queue_stats(self):
        """Event-queue health counters (introspection / regression tests)."""
        return {
            "entries": len(self._queue),
            "live": len(self._queue) - self._stale,
            "stale": self._stale,
            "compactions": self._compactions,
            "ready": self._ready_count,
        }

    def _observe_time(self, time_us):
        """Keep the cached global horizon in sync with an observed clock."""
        if time_us > self._horizon:
            self._horizon = time_us

    def observe_time(self, time_us):
        """Public form of the horizon update, for external clock mutations
        (fault injection advances kernel clocks outside a step)."""
        self._observe_time(time_us)

    # -- signalling ----------------------------------------------------------

    def signal(self, key, time_us=None):
        """Wake every actor blocked on ``key``, in the order they blocked.

        ``time_us`` is the virtual time at which the signalled condition became
        true; woken actors have their clocks advanced to at least that time,
        modelling the spin-wait they performed while blocked.  A timed waiter
        is settled instead (:meth:`settle`): its clock does not move to
        ``time_us``, its next retry becomes a step.
        """
        self._signals += 1
        waiters = self._waiters.pop(key, None)
        if not waiters:
            return 0
        woken = 0
        for actor in waiters:
            keys = self._blocked.pop(actor, None)
            if keys is None:
                continue
            for other in keys:
                if other != key:
                    group = self._waiters.get(other)
                    if group is not None:
                        group.pop(actor, None)
                        if not group:
                            self._waiters.pop(other, None)
            if actor in self._waits:
                self._end_wait(actor)
            else:
                if time_us is not None:
                    actor.clock.advance_to(time_us)
                    self._observe_time(actor.now)
                self._schedule(actor, actor.now, _KIND_READY)
            woken += 1
        return woken

    def _block(self, actor, keys):
        # Each key's waiters are an insertion-ordered dict used as a set, so
        # a signal wakes them in the order they blocked: a set would order
        # them by id hash, and the step order would follow memory addresses.
        self._blocked[actor] = tuple(keys)
        waiters = self._waiters
        for key in keys:
            group = waiters.get(key)
            if group is None:
                waiters[key] = {actor: None}
            else:
                group[actor] = None

    def _unblock(self, actor):
        """Unhook ``actor`` from every wait key it is blocked on."""
        for key in self._blocked.pop(actor, ()):
            group = self._waiters.get(key)
            if group is not None:
                group.pop(actor, None)
                if not group:
                    self._waiters.pop(key, None)

    def wake_actor(self, actor, time_us=None):
        """Make one blocked *or sleeping* actor runnable immediately.

        ``signal`` can only reach actors parked on a wait key; an actor
        sleeping toward a deadline (a scheduler waiting for its next arrival)
        is invisible to it.  The cluster scheduler uses this to deliver live job
        submissions and scheduled preemptions: whatever state the target is
        in, it is rescheduled ready at ``max(actor.now, time_us)``.  Returns
        ``False`` when the actor is finished (nothing to wake).
        """
        if actor.finished:
            return False
        self.settle(actor)
        self._unblock(actor)
        if time_us is not None:
            actor.clock.advance_to(time_us)
            self._observe_time(actor.now)
        self._schedule(actor, actor.now, _KIND_READY)
        return True

    # -- timed waits -----------------------------------------------------------

    def settle(self, actor):
        """End a timed wait now; a no-op for an actor that is not waiting.

        Call it before any change that could alter what the waiter's next
        retry sees without a signal on its wait keys: a clock-rate change, a
        stall, an abandoned collective.  The waiter replays the retries the
        engine passed, so its clock is its queue entry's time, exactly as in
        the step-by-step loop, and that next retry will be a step.
        """
        if actor in self._waits:
            self._unblock(actor)
            self._end_wait(actor)

    def _count_retries_passed(self):
        """Retries passed so far, those of running waits included."""
        return self._retries_passed + sum(
            cohort.passed for cohort in self._waits.values())

    def _wait(self, actor, keys):
        """Start a timed wait: the next retry is queued where a ``PROGRESS``
        step would have queued it, at the actor's clock.  The retry times are
        fetched when the first retry is passed (many waits end before)."""
        self._waits[actor] = _Cohort([actor])
        if keys:
            self._block(actor, keys)
        self._schedule(actor, actor.clock.now, _KIND_READY)

    def _end_wait(self, actor):
        cohort = self._waits[actor]
        if len(cohort.members) > 1:
            self._leave(cohort, cohort.members.index(actor))
        del self._waits[actor]
        self._retries_passed += cohort.passed
        actor.replay(cohort.passed)

    def _leave(self, cohort, index):
        """Make member ``index`` of ``cohort`` a cohort of one, queued at its
        place in the block; the members after it become a cohort of their
        own (the entry stays with the members before it)."""
        members = cohort.members
        entries = self._entries
        entry = entries[members[0]]
        time_us, kind, seq = entry[0], entry[1], entry[2]
        actor = members.pop(index)
        if index == 0:
            # Raising the key within the block keeps the heap ordered.
            entry[2] = seq + 1
            entry[_ENTRY_ACTOR] = members[0]
        elif index < len(members):
            rest = _Cohort(members[index:], cohort.times, cohort.passed)
            del members[index:]
            rest_entry = [time_us, kind, seq + index + 1, rest.members[0]]
            for member in rest.members:
                self._waits[member] = rest
                entries[member] = rest_entry
            heapq.heappush(self._queue, rest_entry)
            self._ready_count += 1
            self._pass_heap_ops += 1
        self._waits[actor] = _Cohort([actor], cohort.times, cohort.passed)
        own = [time_us, kind, seq + index, actor]
        entries[actor] = own
        heapq.heappush(self._queue, own)
        self._ready_count += 1
        self._pass_heap_ops += 1

    # -- fault injection -----------------------------------------------------

    def kill_actor(self, actor, time_us=None):
        """Remove an actor from scheduling immediately (fault injection).

        The actor is marked finished, unhooked from every wait key and its
        queue entry is invalidated on the spot.  Unlike a normal DONE step,
        the actor gets no chance to clean up — this models a crash.
        """
        if actor.finished:
            return False
        self.settle(actor)
        actor.finished = True
        if not actor.daemon:
            self._live_worker_count -= 1
        if time_us is not None:
            actor.clock.advance_to(time_us)
            self._observe_time(actor.now)
        if self.obs.enabled:
            self.obs.metrics.counter("engine_actors_killed").inc()
            self.obs.recorder.record_event(actor.now, "fault",
                                           f"killed:{actor.name}")
        self._discard_entry(actor)
        self._unblock(actor)
        return True

    # -- main loop -----------------------------------------------------------

    @property
    def now(self):
        """Largest local time reached by any actor (the global horizon).

        Cached incrementally: the engine observes every clock advance it
        mediates (steps, signals, sleeper wake-ups), so reading ``now`` is
        O(1) instead of a scan over all actors on every access.
        """
        return self._horizon

    def _live_workers(self):
        """Live non-daemon actors; when none remain the simulation is over."""
        return [
            actor for actor in self._actors if not actor.finished and not actor.daemon
        ]

    def run(self, until_us=None):
        """Run until no live actors remain, a deadline, or a deadlock.

        Returns the final global virtual time.  Timed waiters still waiting
        when a deadline stops the run are settled first, so every clock and
        counter reads as if each retry had been a step.
        """
        queue = self._queue
        entries = self._entries
        while True:
            if until_us is not None and self._horizon >= until_us:
                return self._stop()

            actor = self._pop_runnable(until_us)
            if actor is None:
                self._handle_stall()
                return self._horizon
            if actor is _UNTIL:
                return self._stop()

            self._steps += 1
            if self._steps > MAX_STEPS:
                raise SimulationError(
                    f"engine exceeded {MAX_STEPS} steps; "
                    "likely a livelock in a simulated component"
                )
            result = actor.step()
            now = actor.clock.now
            if now > self._horizon:
                self._horizon = now
            ring = self._event_ring
            if ring is not None:
                # The flight recorder's entire hot-path cost: one bounded
                # deque append per step (``_value_`` is ``value`` without
                # the enum descriptor).
                ring.append((now, actor.name, result.status._value_,
                             result.detail))

            status = result.status
            if status is _PROGRESS:
                # ``_schedule(actor, now, _KIND_READY)`` inlined: the actor's
                # entry was popped to step it, so there is nothing to
                # invalidate unless the step gave it a new one.
                if actor in entries:
                    self._invalidate(entries[actor])
                entry = [now, _KIND_READY, self._seq, actor]
                self._seq += 1
                entries[actor] = entry
                heapq.heappush(queue, entry)
                self._ready_count += 1
            elif status is StepStatus.BLOCKED:
                self._block(actor, result.wait_keys)
            elif status is StepStatus.SLEEP:
                self._schedule(actor, max(result.wake_at, now), _KIND_SLEEP)
            elif status is StepStatus.WAIT:
                self._wait(actor, result.wait_keys)
            elif status is StepStatus.DONE:
                actor.finished = True
                del self._actors[actor]
                if not actor.daemon:
                    self._live_worker_count -= 1
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown step status {result.status}")

    def _stop(self):
        """Return from :meth:`run` at its deadline, settling timed waiters."""
        for actor in list(self._waits):
            self.settle(actor)
        return self._horizon

    def _pop_runnable(self, until_us=None):
        """Pop the next actor to step, respecting virtual-time causality.

        Ready and sleeping actors share the event queue, merged by timestamp
        (sleepers first on ties): a sleeper whose wake time precedes the
        earliest ready actor's clock is woken first, so no actor ever
        observes state produced "in its future".  A timed waiter's retries
        are passed here, without a step, a cohort round at a time; returns
        ``_UNTIL`` when passing one takes the horizon to ``until_us``.
        """
        queue = self._queue
        entries = self._entries
        waits = self._waits
        heapreplace = heapq.heapreplace
        last = None   # the cohort passed just before
        while queue:
            entry = queue[0]
            actor = entry[_ENTRY_ACTOR]
            if actor is None:
                heapq.heappop(queue)
                self._stale -= 1
                continue
            if actor.finished:
                # Defensive: every finish path invalidates the entry, but an
                # actor finished behind the engine's back must not be stepped.
                heapq.heappop(queue)
                if entries.get(actor) is entry:
                    del entries[actor]
                if entry[1] == _KIND_READY:
                    self._ready_count -= 1
                continue
            if entry[1] == _KIND_READY:
                cohort = waits.get(actor) if waits else None
                if cohort is not None:
                    times = cohort.times
                    if times is None:
                        times = cohort.times = actor.retry_times()
                    passed = cohort.passed + 1
                    size = len(cohort.members)
                    if passed < len(times):
                        if (last is not None and last.times is times
                                and last.passed == passed):
                            # One-by-one passing would pass these retries
                            # right behind the last cohort's: join its round.
                            self._join(last, cohort)
                            continue
                        time_us = times[passed]
                        if (until_us is not None and size > 1
                                and time_us >= until_us):
                            # The run stops after this member's retry.
                            self._leave(cohort, 0)
                            continue
                        # These retries would fail like the ones before them:
                        # pass them and turn the entry into the next round,
                        # with the sequence numbers steps would have drawn.
                        cohort.passed = passed
                        if time_us > self._horizon:
                            self._horizon = time_us
                        entry[0] = time_us
                        entry[2] = self._seq
                        self._seq += size
                        heapreplace(queue, entry)
                        self._pass_heap_ops += 1
                        if until_us is not None and self._horizon >= until_us:
                            return _UNTIL
                        last = cohort
                        continue
                    if size > 1:
                        # The lead's last retry is a step; the rest of the
                        # block keeps the entry, its key raised in place.
                        members = cohort.members
                        del members[0]
                        entry[2] += 1
                        entry[_ENTRY_ACTOR] = members[0]
                        waits[actor] = _Cohort([actor], times, cohort.passed)
                        self.settle(actor)
                        del entries[actor]
                        return actor
                    self.settle(actor)   # the last retry is a step
                heapq.heappop(queue)
                del entries[actor]
                self._ready_count -= 1
                return actor
            # The earliest event is a sleeper wake-up.
            if self._ready_count == 0 and self._live_worker_count <= 0:
                # Only daemon sleepers remain; let the caller finish.
                return None
            heapq.heappop(queue)
            del entries[actor]
            actor.clock.advance_to(entry[0])
            self._observe_time(actor.now)
            self._schedule(actor, actor.now, _KIND_READY)
        return None

    def _join(self, cohort, follower):
        """Move the members of ``follower``, earliest in the queue, into
        ``cohort``, passed a round just before: their retries and sequence
        numbers follow the cohort's members'."""
        heapq.heappop(self._queue)
        self._ready_count -= 1
        self._pass_heap_ops += 1
        entry = self._entries[cohort.members[0]]
        for member in follower.members:
            self._waits[member] = cohort
            self._entries[member] = entry
        cohort.members.extend(follower.members)
        self._seq += len(follower.members)

    def _handle_stall(self):
        """Called when the event queue ran dry: the run is over.

        Raises or records a deadlock when live actors remain but none can
        ever run.
        """
        workers = self._live_workers()
        if not workers:
            return

        blocked = [actor for actor in workers if actor in self._blocked]
        if blocked:
            report = DeadlockReport(
                time_us=self.now,
                blocked_actors=blocked,
                wait_graph={actor.name: list(self._blocked[actor]) for actor in blocked},
            )
            self.deadlock_report = report
            if self.obs.enabled:
                self.obs.metrics.counter("engine_deadlocks").inc()
                self.obs.auto_dump("deadlock", context={
                    "time_us": report.time_us,
                    "blocked_actors": report.involved(),
                    "wait_graph": {name: [repr(key) for key in keys]
                                   for name, keys in
                                   report.wait_graph.items()},
                })
            if self.deadlock_mode == "raise":
                raise DeadlockError(
                    f"deadlock at t={self.now:.2f}us: "
                    f"{len(blocked)} actors blocked with no possible signal",
                    wait_graph=report.wait_graph,
                    blocked=report.involved(),
                )
            return

        # Live actors exist but none is ready, blocked or sleeping: they were
        # all left unscheduled, which indicates an engine bug.
        raise SimulationError("live actors exist but none is schedulable")

    # -- teardown ---------------------------------------------------------------

    def close(self):
        """Drop the engine's references to its actors (see
        :meth:`~repro.gpusim.cluster.Cluster.close`); idempotent.

        The engine ends empty: no actors, queue entries or waiters.  Its
        counters, the deadlock report's time, wait graph and blocked names,
        and the hub stay; each engine gauge reads its final value.
        """
        self.obs.metrics.freeze_gauges(self._gauge_names)
        for table in (self._actors, self._entries, self._blocked,
                      self._waiters, self._waits):
            table.clear()
        self._queue.clear()
        self._stale = self._ready_count = self._live_worker_count = 0
        if self.deadlock_report is not None:
            self.deadlock_report.blocked_actors = []

    # -- introspection --------------------------------------------------------

    @property
    def step_count(self):
        """Actor steps run so far (a passed retry is not one)."""
        return self._steps
