"""Compiled schedules and their execution.

A primitive is a fusion of the basic actions ``send``, ``recv``, ``reduce``
and ``copy`` (Sec. 4.1).  Depending on which of ``send``/``recv`` it contains,
a primitive busy-waits until its send connector is writable and/or its recv
connector is readable before progressing.

A rank's compiled form of one collective is a :class:`Schedule`: the loop
body it runs once per chunk loop, as a short tuple of *runs* — stretches of
consecutive primitives that share an action, a size and a peer pair.  A
:class:`Primitive` is a view of one position of a schedule, built on demand
for the parity checks, the digests and the analysis layer; nothing on the
hot path builds one.

:meth:`PrimitiveExecutor.burst` implements the check-then-execute logic once:
it walks the schedule run by run, executing primitives back to back until
one would busy-wait or a step's limit is reached.  The NCCL baseline (which
then waits forever) and the DFCCL daemon kernel (which bounds the wait with a
spin threshold) both call it with :data:`PRIMITIVES_PER_STEP`, so they share
exactly the same data-plane behaviour.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from itertools import chain, repeat, starmap

from repro.common.types import PrimitiveAction
from repro.collectives.cost import primitive_time_us, split_busy


#: Most primitives one engine step of either backend runs back to back (the
#: ``limit`` both kernels pass to :meth:`PrimitiveExecutor.burst`).  Where a
#: step ends decides where other actors' steps interleave with it, so this
#: fixes the virtual time of every run.
PRIMITIVES_PER_STEP = 8

_SEND_BITS = PrimitiveAction.SEND.value
_RECV_BITS = PrimitiveAction.RECV.value
_MEMORY_BITS = PrimitiveAction.REDUCE.value | PrimitiveAction.COPY.value


class Primitive:
    """One step of a collective's per-rank schedule, as a view.

    A slotted plain class holding only the seven identity fields, built by
    :class:`Schedule` when a position is read.  ``name``, ``sends``,
    ``recvs`` and ``touches_memory`` are read-only properties derived from
    ``action``.  ``send_peer`` / ``recv_peer`` are set exactly when the
    action sends / receives.
    """

    __slots__ = ("action", "loop", "step", "chunk_index", "nbytes",
                 "send_peer", "recv_peer")

    def __init__(self, action, loop, step, chunk_index, nbytes,
                 send_peer=None, recv_peer=None):
        self.action = action
        self.loop = loop
        self.step = step
        self.chunk_index = chunk_index
        self.nbytes = nbytes
        self.send_peer = send_peer
        self.recv_peer = recv_peer

    @property
    def name(self):
        return PRIMITIVE_NAMES[self.action]

    @property
    def sends(self):
        return self.action._value_ & _SEND_BITS != 0

    @property
    def recvs(self):
        return self.action._value_ & _RECV_BITS != 0

    @property
    def touches_memory(self):
        return self.action._value_ & _MEMORY_BITS != 0

    def _identity(self):
        return (self.name, self.action, self.loop, self.step,
                self.chunk_index, self.nbytes, self.send_peer, self.recv_peer)

    def __eq__(self, other):
        if not isinstance(other, Primitive):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())

    def __repr__(self):
        return (f"Primitive(name={self.name!r}, action={self.action!r}, "
                f"loop={self.loop}, step={self.step}, "
                f"chunk_index={self.chunk_index}, nbytes={self.nbytes}, "
                f"send_peer={self.send_peer}, recv_peer={self.recv_peer})")


#: Named fusions used by the Ring algorithm, mirroring NCCL's primitive names.
PRIM_SEND = PrimitiveAction.SEND
PRIM_RECV = PrimitiveAction.RECV | PrimitiveAction.COPY
PRIM_COPY = PrimitiveAction.COPY
PRIM_RECV_COPY_SEND = PrimitiveAction.RECV | PrimitiveAction.COPY | PrimitiveAction.SEND
PRIM_RECV_REDUCE_SEND = PrimitiveAction.RECV | PrimitiveAction.REDUCE | PrimitiveAction.SEND
PRIM_RECV_REDUCE_COPY = PrimitiveAction.RECV | PrimitiveAction.REDUCE | PrimitiveAction.COPY
PRIM_RECV_REDUCE_COPY_SEND = (
    PrimitiveAction.RECV
    | PrimitiveAction.REDUCE
    | PrimitiveAction.COPY
    | PrimitiveAction.SEND
)

#: The one NCCL name of each fusion: a primitive's ``name`` is derived from
#: its action through this table, never stored.
PRIMITIVE_NAMES = {
    PRIM_SEND: "send",
    PRIM_RECV: "recv",
    PRIM_COPY: "copy",
    PRIM_RECV_COPY_SEND: "recvCopySend",
    PRIM_RECV_REDUCE_SEND: "recvReduceSend",
    PRIM_RECV_REDUCE_COPY: "recvReduceCopy",
    PRIM_RECV_REDUCE_COPY_SEND: "recvReduceCopySend",
}


def _view(run, loop, offset):
    """The primitive at ``offset`` in ``run`` during chunk loop ``loop``."""
    action, _, step, chunk, nbytes, send_peer, recv_peer = run
    step += offset
    if chunk is None:
        chunk = loop
    elif chunk.__class__ is tuple:
        origin, size = chunk
        chunk = (origin - step) % size
    return Primitive(action, loop, step, chunk, nbytes, send_peer, recv_peer)


class Schedule:
    """One rank's compiled schedule of one collective: loop bodies of runs.

    ``segments`` is a tuple of ``(first_loop, loops, body)``: chunk loops
    ``first_loop`` to ``first_loop + loops - 1`` each run ``body``, a tuple
    of runs ``(action, count, step, chunk, nbytes, send_peer, recv_peer)``.
    A run is ``count`` consecutive primitives at steps ``step`` to
    ``step + count - 1`` that share an action, a size and a peer pair (a
    peer is set exactly when the action sends / receives).  Its ``chunk``
    rule gives each primitive's chunk index: an int (the same for all),
    ``None`` (the loop index) or ``(origin, n)`` (``(origin - step) mod n``,
    a ring pass).  Zero-count runs are dropped.  A payload splits into full
    loops and a tail, so a compiled schedule holds at most two bodies
    however many loops it runs.

    A schedule is an immutable sequence of :class:`Primitive` views:
    indexing, slicing and iteration build them on demand.  Two schedules
    are equal when their primitives are; equal segments decide it without
    building any.
    """

    __slots__ = ("segments", "_spans", "_length")

    def __init__(self, segments):
        self.segments = tuple(
            (first_loop, loops, tuple(run for run in body if run[1]))
            for first_loop, loops, body in segments)
        spans = []
        start = 0
        for _, loops, body in self.segments:
            run_starts = []
            length = 0
            for run in body:
                run_starts.append(length)
                length += run[1]
            spans.append((start, length, run_starts))
            start += loops * length
        #: Per segment: its first position, its body's length and the offset
        #: of each run in the body.
        self._spans = spans
        self._length = start

    def __len__(self):
        return self._length

    def _locate(self, index):
        """``(segment, loop, run, offset)`` of position ``index``, the loop
        counted from the segment's first; past the end, segment is
        ``len(segments)``."""
        for segment, (start, length, run_starts) in enumerate(self._spans):
            within = index - start
            if within < self.segments[segment][1] * length:
                loop, within = divmod(within, length)
                run = bisect_right(run_starts, within) - 1
                return segment, loop, run, within - run_starts[run]
        return len(self._spans), 0, 0, 0

    def walk(self, index):
        """``(bodies, run, offset)``: ``bodies`` iterates the body of every
        chunk loop from the one holding position ``index`` to the end, and
        ``index`` is at ``offset`` in run ``run`` of the first."""
        segment, loop, run, offset = self._locate(index)
        rest = [(body, loops) for _, loops, body in self.segments[segment:]]
        if rest:
            rest[0] = (rest[0][0], rest[0][1] - loop)
        return chain.from_iterable(starmap(repeat, rest)), run, offset

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._length))]
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("schedule index out of range")
        segment, loop, run, offset = self._locate(index)
        first_loop, _, body = self.segments[segment]
        return _view(body[run], first_loop + loop, offset)

    def __iter__(self):
        for first_loop, loops, body in self.segments:
            for loop in range(first_loop, first_loop + loops):
                for run in body:
                    for offset in range(run[1]):
                        yield _view(run, loop, offset)

    def __eq__(self, other):
        if isinstance(other, Schedule) and self.segments == other.segments:
            return True
        if not isinstance(other, (Schedule, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))

    def __repr__(self):
        return f"Schedule({len(self)} primitives, segments={self.segments!r})"


class ExecOutcome(enum.Enum):
    """Result of attempting to execute the current primitive."""

    SUCCESS = "success"
    WAIT_RECV = "wait_recv"
    WAIT_SEND = "wait_send"
    ALL_DONE = "all_done"


#: Hot-path aliases: enum member access goes through ``EnumType.__getattr__``
#: on every lookup, which is measurable at one attempt per primitive.
_SUCCESS = ExecOutcome.SUCCESS
_WAIT_RECV = ExecOutcome.WAIT_RECV
_WAIT_SEND = ExecOutcome.WAIT_SEND
_ALL_DONE = ExecOutcome.ALL_DONE


class PrimitiveOutcome:
    """Outcome of a burst; a WAIT_* also names what it waits on.

    ``channel`` and ``wait_key`` are the channel that failed the attempt and
    the key to block/spin on, ``action`` and ``index`` the waiting
    primitive's action and schedule position; ``primitive`` is its view.
    """

    __slots__ = ("outcome", "wait_key", "channel", "action", "index",
                 "_schedule")

    def __init__(self, outcome, schedule=None):
        self.outcome = outcome
        self.wait_key = self.channel = self.action = self.index = None
        self._schedule = schedule

    @property
    def name(self):
        """The waiting primitive's NCCL name (``None`` unless WAIT_*)."""
        return None if self.action is None else PRIMITIVE_NAMES[self.action]

    @property
    def primitive(self):
        """The waiting primitive, a view (``None`` unless WAIT_*)."""
        return None if self._schedule is None else self._schedule[self.index]


#: The outcomes that carry no primitive, shared by every burst (read only).
_SUCCESS_OUTCOME = PrimitiveOutcome(_SUCCESS)
_ALL_DONE_OUTCOME = PrimitiveOutcome(_ALL_DONE)


class PrimitiveExecutor:
    """Executes one rank's compiled schedule of one collective.

    The executor's ``position`` is the *dynamic context* of the collective on
    this GPU (Sec. 4.2): saving and restoring it is what makes preemption and
    resumption correct, because every already-executed primitive's data stays
    visible in the connectors.  ``position`` counts primitives over the whole
    schedule; a run cursor beside it remembers where in the loop body that
    is, and setting ``position`` re-derives it.
    """

    def __init__(self, group_rank, communicator, schedule):
        self.group_rank = group_rank
        self.communicator = communicator
        #: The :class:`Schedule` (immutable, shared with whoever compiled it).
        self.primitives = schedule
        #: The run cursor of ``position``: the loop bodies still to walk, the
        #: current one (``None`` past the end), the run in it and the offset
        #: in that run.
        self.position = 0
        #: Per-peer channel cache: the communicator resolves channels through
        #: a keyed dict, but one executor only ever talks to its fixed ring /
        #: tree peers.
        self._recv_channels = {}
        self._send_channels = {}
        #: Link and busy-time caches keyed per peer, valid for one
        #: interconnect ``link_epoch``: a degradation or restore bumps the
        #: epoch and both caches are dropped wholesale.
        self._links = {}
        self._busy_cache = {}
        self._cache_epoch = communicator.interconnect.link_epoch
        #: The WAIT_* outcome a burst returns, reused: every caller reads it
        #: before its next burst on this executor, and most bursts of a
        #: spinning collective fail their first attempt.
        self._wait_outcome = PrimitiveOutcome(_WAIT_RECV, schedule)
        #: Optional per-primitive execution trace: a flat ``array('d')`` of
        #: ``(start_us, end_us, busy_us)`` triples appended per executed
        #: primitive, attached by ``obs.analysis`` when time attribution is
        #: requested.  ``None`` (the default) keeps the hot path at one identity
        #: check per primitive.
        self.trace = None

    # -- introspection ----------------------------------------------------------

    @property
    def position(self):
        """Index of the next primitive to execute in the whole schedule."""
        return self._position

    @position.setter
    def position(self, position):
        self._bodies, self._index, self._offset = self.primitives.walk(position)
        self._body = next(self._bodies, None)
        self._position = position

    @property
    def remaining(self):
        return len(self.primitives) - self._position

    def done(self):
        return self._position >= len(self.primitives)

    # -- execution -----------------------------------------------------------------

    def _recv_channel(self, peer):
        channel = self._recv_channels.get(peer)
        if channel is None:
            channel = self._recv_channels[peer] = \
                self.communicator.channel(peer, self.group_rank)
        return channel

    def _send_channel(self, peer):
        channel = self._send_channels.get(peer)
        if channel is None:
            channel = self._send_channels[peer] = \
                self.communicator.channel(self.group_rank, peer)
        return channel

    def split_busy(self, primitive, busy):
        """Split one of this executor's traced busy times into the cost
        terms ``(overhead, alpha, beta, memory)`` of :func:`cost.split_busy`,
        over the link the primitive sends on."""
        peer = primitive.send_peer
        link = (None if peer is None
                else self.communicator.link(self.group_rank, peer))
        return split_busy(busy, primitive.nbytes, link,
                          primitive.touches_memory)

    def late_arrival_us(self, outcome):
        """Head arrival time a ``WAIT_RECV`` outcome judged too far in the
        future, or ``None`` when no chunk is in flight."""
        if outcome.outcome is not _WAIT_RECV:
            return None
        channel = outcome.channel
        if channel.invalidated or not channel.arrivals:
            return None
        return channel.arrivals[0]

    def burst(self, clock, engine=None, limit=1, max_wait_us=None,
              success_wait_us=None):
        """Execute up to ``limit`` primitives back to back; return
        ``(executed, outcome)``.

        The outcome is SUCCESS once ``limit`` primitives executed, otherwise
        the first failed attempt's WAIT_RECV / WAIT_SEND (with the key to wait
        on) or ALL_DONE.  A failed attempt charges no time: busy-wait
        accounting (spinning or blocking) is the caller's, because NCCL and
        DFCCL handle it differently.  The first attempt waits at most
        ``max_wait_us`` for in-flight data, every later one at most
        ``success_wait_us`` (DFCCL passes the spin budget left and the budget
        a success restores; ``None`` waits without bound).  One call is the
        same as ``limit`` calls with ``limit=1``, stopping at the first
        failure: same clock, channel contents, signals and trace.  The
        outcome is only valid until the next call: WAIT_* outcomes reuse one
        object per executor.
        """
        position = self._position
        body = self._body
        index = self._index
        offset = self._offset
        now = clock.now
        executed = 0
        max_wait = max_wait_us
        outcome = waiting = None

        # The schedule is walked a run at a time.  Entering a run makes its
        # first attempt and binds its channels' arrival deques, capacity and
        # wait keys and its busy time once; each primitive then costs one
        # ``popleft`` / ``append``, the two waiter checks, the clock add and
        # the next attempt's arrival-time check, and the run's counters are
        # added when it stops.  While a burst runs only this executor
        # touches its channels (a signal wakes other actors but runs none),
        # so a channel's ``invalidated`` flag and capacity hold for the
        # whole burst; ``clock.now`` lives in ``now`` until the burst ends or
        # a signal needs it.  A failed attempt leaves the channel it waits
        # on in ``waiting``.
        while True:
            if executed == limit:
                outcome = _SUCCESS_OUTCOME
                break
            if body is None:
                outcome = _ALL_DONE_OUTCOME
                break
            action, count, _, _, nbytes, send_peer, recv_peer = body[index]
            # The run's first attempt.  A channel is readable when it holds
            # an arrival the receiver is willing to wait for, and writable
            # below its capacity.  Channels are created on first use, the
            # send channel only once the receive check passed: the run's
            # engine numbers channels in creation order, and wait keys carry
            # the ids.
            if recv_peer is not None:
                recv_channel = self._recv_channels.get(recv_peer)
                if recv_channel is None:
                    recv_channel = self._recv_channel(recv_peer)
                arrivals = recv_channel.arrivals
                if recv_channel.invalidated or not arrivals or (
                    max_wait is not None and arrivals[0] > now + max_wait
                ):
                    waiting, kind = recv_channel, _WAIT_RECV
                    break
                recv_key = recv_channel.writable_key
            if send_peer is not None:
                send_channel = self._send_channels.get(send_peer)
                if send_channel is None:
                    send_channel = self._send_channel(send_peer)
                pushes = send_channel.arrivals
                capacity = send_channel.capacity
                if send_channel.invalidated or len(pushes) >= capacity:
                    waiting, kind = send_channel, _WAIT_SEND
                    break
                send_key = send_channel.readable_key

            if not executed:
                # The burst's first attempt passed: set up the state the
                # rest of the burst shares.
                epoch = self.communicator.interconnect.link_epoch
                if epoch != self._cache_epoch:
                    self._links.clear()
                    self._busy_cache.clear()
                    self._cache_epoch = epoch
                busy_cache = self._busy_cache
                waiters = engine.waiters_by_key if engine is not None else ()
                trace = self.trace
                rate = clock.rate
            # ``_value_``: an enum member's hash runs in Python.
            busy_key = (nbytes, send_peer, action._value_)
            busy = busy_cache.get(busy_key)
            if busy is None:
                link = None
                if send_peer is not None:
                    link = self._links.get(send_peer)
                    if link is None:
                        link = self._links[send_peer] = \
                            self.communicator.link(self.group_rank, send_peer)
                busy = busy_cache[busy_key] = primitive_time_us(
                    nbytes, link, action._value_ & _MEMORY_BITS != 0)
            # clock.advance(busy) inlined: busy is a cached non-negative cost.
            advance = busy * rate
            # The run's later attempts can pop at most the arrivals the
            # receive deque holds now and push at most the room the send
            # deque has, so the loop stops at ``ready`` and checks only
            # arrival times on the way.
            ready = run = count - offset
            if run > 1:
                if run > limit - executed:
                    ready = run = limit - executed
                timed = False
                if recv_peer is not None:
                    if len(arrivals) < ready:
                        ready = len(arrivals)
                    timed = success_wait_us is not None
                if send_peer is not None and capacity - len(pushes) < ready:
                    ready = capacity - len(pushes)

            done = 0
            while True:
                # The primitive executes now.  The trace's start is the
                # clock *before* any arrival spin, so the analysis layer can
                # split recv wait from dilated work.
                start = now
                if recv_peer is not None:
                    # Spin until the in-flight data actually arrives, then
                    # consume it.
                    arrival = arrivals.popleft()
                    if arrival > now:
                        now = arrival
                    # A signal with no registered waiter is a no-op, so
                    # consult the engine's public waiter table before paying
                    # the call.
                    if recv_key in waiters:
                        clock.now = now
                        engine.signal(recv_key, now)
                now += advance
                if send_peer is not None:
                    pushes.append(now)
                    if send_key in waiters:
                        clock.now = now
                        engine.signal(send_key, now)
                if trace is not None:
                    trace.append(start)
                    trace.append(now)
                    trace.append(busy)
                done += 1
                if done == ready:
                    if ready < run:
                        # The next attempt fails a count check, the receive
                        # check first: no arrival left (or a late one), else
                        # no room.
                        if recv_peer is not None and not arrivals or (
                                timed and arrivals[0] > now + success_wait_us):
                            waiting, kind = recv_channel, _WAIT_RECV
                        else:
                            waiting, kind = send_channel, _WAIT_SEND
                    break
                # The next attempt, after a success: is its arrival in time?
                if timed and arrivals[0] > now + success_wait_us:
                    waiting, kind = recv_channel, _WAIT_RECV
                    break

            if send_peer is not None:
                send_channel.pushed_count += done
                send_channel.bytes_pushed += done * nbytes
            position += done
            executed += done
            offset += done
            max_wait = success_wait_us
            if waiting is not None:
                break
            if offset == count:
                # The run is done: step to the next run, loop or segment.
                offset = 0
                index += 1
                if index == len(body):
                    index = 0
                    body = next(self._bodies, None)

        if waiting is not None:
            outcome = self._wait_outcome
            outcome.outcome = kind
            outcome.wait_key = (waiting.readable_key if kind is _WAIT_RECV
                                else waiting.writable_key)
            outcome.channel = waiting
            outcome.action = action
            outcome.index = position
        if executed:
            clock.now = now
            self._position = position
            self._body = body
            self._index = index
            self._offset = offset
        return executed, outcome
