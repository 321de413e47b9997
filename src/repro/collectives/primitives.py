"""Primitives and their execution.

A primitive is a fusion of the basic actions ``send``, ``recv``, ``reduce``
and ``copy`` (Sec. 4.1).  Depending on which of ``send``/``recv`` it contains,
a primitive busy-waits until its send connector is writable and/or its recv
connector is readable before progressing.  :meth:`PrimitiveExecutor.burst`
implements this check-then-execute logic once: it runs a rank's primitives
back to back until one would busy-wait or a step's limit is reached.  The
NCCL baseline (which then waits forever) and the DFCCL daemon kernel (which
bounds the wait with a spin threshold) both call it with
:data:`PRIMITIVES_PER_STEP`, so they share exactly the same data-plane
behaviour.
"""

from __future__ import annotations

import enum

from repro.common.types import PrimitiveAction
from repro.collectives.cost import DEFAULT_COST_MODEL


#: Most primitives one engine step of either backend runs back to back (the
#: ``limit`` both kernels pass to :meth:`PrimitiveExecutor.burst`).  Where a
#: step ends decides where other actors' steps interleave with it, so this
#: fixes the virtual time of every run.
PRIMITIVES_PER_STEP = 8

_SEND_BITS = PrimitiveAction.SEND.value
_RECV_BITS = PrimitiveAction.RECV.value
_MEMORY_BITS = PrimitiveAction.REDUCE.value | PrimitiveAction.COPY.value


class Primitive:
    """One step of a collective's per-rank primitive sequence.

    A slotted plain class holding only the seven identity fields: a ring
    all-reduce at 512 ranks compiles half a million of these per invocation,
    so every slot counts.  ``name``, ``sends``, ``recvs`` and
    ``touches_memory`` are read-only properties derived from ``action``.
    ``send_peer`` / ``recv_peer`` are set exactly when the action sends /
    receives, which lets the executor test peer presence instead of the
    action bits.
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
    """Outcome plus the wait key to block/spin on when not successful."""

    __slots__ = ("outcome", "primitive", "wait_key")

    def __init__(self, outcome, primitive=None, wait_key=None):
        self.outcome = outcome
        self.primitive = primitive
        self.wait_key = wait_key


#: The outcomes that carry no primitive, shared by every burst (read only).
_SUCCESS_OUTCOME = PrimitiveOutcome(_SUCCESS)
_ALL_DONE_OUTCOME = PrimitiveOutcome(_ALL_DONE)


class PrimitiveExecutor:
    """Executes one rank's primitive sequence of one collective.

    The executor's ``position`` is the *dynamic context* of the collective on
    this GPU (Sec. 4.2): saving and restoring it is what makes preemption and
    resumption correct, because every already-executed primitive's data stays
    visible in the connectors.
    """

    #: The primitive cost model every backend shares (``obs.analysis`` reads
    #: it to split busy time into its terms).
    cost_model = DEFAULT_COST_MODEL

    def __init__(self, collective_id, group_rank, communicator, primitives):
        self.collective_id = collective_id
        self.group_rank = group_rank
        self.communicator = communicator
        self.primitives = list(primitives)
        self.position = 0
        self.executed_primitives = 0
        #: Per-peer channel cache: the communicator resolves channels through
        #: a keyed dict, but one executor only ever talks to its fixed ring /
        #: tree peers, so a local cache skips the tuple build + method call on
        #: every primitive attempt.
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
        self._wait_outcome = PrimitiveOutcome(_WAIT_RECV)
        #: Optional per-primitive execution trace: a flat ``array('d')`` of
        #: ``(start_us, end_us, busy_us)`` triples appended per executed
        #: primitive, attached by ``obs.analysis`` when time attribution is
        #: requested.  ``None`` (the default) keeps the hot path at one identity
        #: check per primitive.
        self.trace = None

    # -- introspection ----------------------------------------------------------

    @property
    def remaining(self):
        return len(self.primitives) - self.position

    def done(self):
        return self.position >= len(self.primitives)

    # -- execution -----------------------------------------------------------------

    def _recv_channel(self, primitive):
        peer = primitive.recv_peer
        channel = self._recv_channels.get(peer)
        if channel is None:
            channel = self.communicator.channel(peer, self.group_rank)
            self._recv_channels[peer] = channel
        return channel

    def _send_channel(self, primitive):
        peer = primitive.send_peer
        channel = self._send_channels.get(peer)
        if channel is None:
            channel = self.communicator.channel(self.group_rank, peer)
            self._send_channels[peer] = channel
        return channel

    def late_arrival_us(self, outcome):
        """Head arrival time a ``WAIT_RECV`` outcome judged too far in the
        future, or ``None`` when no chunk is in flight."""
        if outcome.outcome is not _WAIT_RECV:
            return None
        channel = self._recv_channels.get(outcome.primitive.recv_peer)
        if channel is None or channel.invalidated or not channel.arrivals:
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
        position = self.position
        primitives = self.primitives
        end = len(primitives)
        stop = position + limit
        now = clock.now
        max_wait = max_wait_us
        executed = 0
        recv_peer_seen = send_peer_seen = -1  # no peer: ranks are >= 0

        # A channel is readable when it holds an arrival the receiver is
        # willing to wait for, and writable below its capacity; both checks
        # read the arrival deque directly.  A primitive has a peer exactly
        # when its action sends / receives.  The channels, link and busy time
        # of the previous primitive are reused while its peers and shape
        # repeat, and ``clock.now`` lives in ``now`` until the burst ends or
        # an engine signal needs it.
        while True:
            if position == stop:
                outcome = _SUCCESS_OUTCOME
                break
            if position >= end:
                outcome = _ALL_DONE_OUTCOME
                break
            primitive = primitives[position]
            recv_peer = primitive.recv_peer
            if recv_peer is not None:
                if recv_peer != recv_peer_seen:
                    recv_channel = self._recv_channels.get(recv_peer)
                    if recv_channel is None:
                        recv_channel = self._recv_channel(primitive)
                    recv_peer_seen = recv_peer
                arrivals = recv_channel.arrivals
                if recv_channel.invalidated or not arrivals or (
                    max_wait is not None and arrivals[0] > now + max_wait
                ):
                    outcome = self._wait_outcome
                    outcome.outcome = _WAIT_RECV
                    outcome.primitive = primitive
                    outcome.wait_key = recv_channel.readable_key
                    break
                receives = recv_channel
            else:
                receives = None
            send_peer = primitive.send_peer
            if send_peer is not None:
                if send_peer != send_peer_seen:
                    send_channel = self._send_channels.get(send_peer)
                    if send_channel is None:
                        send_channel = self._send_channel(primitive)
                    send_peer_seen = send_peer
                if send_channel.invalidated or \
                        len(send_channel.arrivals) >= send_channel.capacity:
                    outcome = self._wait_outcome
                    outcome.outcome = _WAIT_SEND
                    outcome.primitive = primitive
                    outcome.wait_key = send_channel.writable_key
                    break
                sends = send_channel
            else:
                sends = None

            if not executed:
                # Both wait checks of the first attempt passed: set up the
                # state the rest of the burst shares.
                epoch = self.communicator.interconnect.link_epoch
                if epoch != self._cache_epoch:
                    self._links.clear()
                    self._busy_cache.clear()
                    self._cache_epoch = epoch
                busy_cache = self._busy_cache
                waiters = engine.waiters_by_key if engine is not None else ()
                trace = self.trace
                rate = clock.rate
                busy_nbytes = busy_peer = busy_action = None

            # The primitive executes now.  The trace's start is the clock
            # *before* any arrival spin, so the analysis layer can split recv
            # wait from dilated work.
            start = now
            nbytes = primitive.nbytes
            action = primitive.action
            if nbytes != busy_nbytes or send_peer != busy_peer \
                    or action is not busy_action:
                busy_nbytes, busy_peer, busy_action = busy_key = (
                    nbytes, send_peer, action)
                busy = busy_cache.get(busy_key)
                if busy is None:
                    link = None
                    if sends is not None:
                        link = self._links.get(send_peer)
                        if link is None:
                            link = self._links[send_peer] = \
                                self.communicator.link(self.group_rank, send_peer)
                    busy = busy_cache[busy_key] = self.cost_model.primitive_time_us(
                        nbytes, link=link, sends=sends is not None,
                        touches_memory=primitive.touches_memory)

            if receives is not None:
                # Spin until the in-flight data actually arrives, then
                # consume it.
                arrival = arrivals.popleft()
                if arrival > now:
                    now = arrival
                # A signal with no registered waiter is a no-op, so consult
                # the engine's public waiter table before paying the call.
                key = receives.writable_key
                if key in waiters:
                    clock.now = now
                    engine.signal(key, now)

            # clock.advance(busy) inlined: busy is a cached non-negative cost.
            now += busy * rate

            if sends is not None:
                sends.arrivals.append(now)
                sends.pushed_count += 1
                sends.bytes_pushed += nbytes
                key = sends.readable_key
                if key in waiters:
                    clock.now = now
                    engine.signal(key, now)

            if trace is not None:
                trace.append(start)
                trace.append(now)
                trace.append(busy)

            position += 1
            executed += 1
            max_wait = success_wait_us

        if executed:
            clock.now = now
            self.position = position
            self.executed_primitives += executed
        return executed, outcome
