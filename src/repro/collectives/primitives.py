"""Primitives and their execution.

A primitive is a fusion of the basic actions ``send``, ``recv``, ``reduce``
and ``copy`` (Sec. 4.1).  Depending on which of ``send``/``recv`` it contains,
a primitive busy-waits until its send connector is writable and/or its recv
connector is readable before progressing.  The :class:`PrimitiveExecutor`
implements this check-then-execute logic once, so the NCCL baseline (which
waits forever) and the DFCCL daemon kernel (which bounds the wait with a spin
threshold) share exactly the same data-plane behaviour.
"""

from __future__ import annotations

import enum

from repro.common.errors import InvalidStateError
from repro.common.types import PrimitiveAction
from repro.collectives.channels import ChunkMessage
from repro.collectives.cost import DEFAULT_COST_MODEL


_SEND_BITS = PrimitiveAction.SEND.value
_RECV_BITS = PrimitiveAction.RECV.value
_MEMORY_BITS = PrimitiveAction.REDUCE.value | PrimitiveAction.COPY.value


class Primitive:
    """One step of a collective's per-rank primitive sequence.

    A slotted plain class rather than a dataclass: a ring all-reduce at 512
    ranks compiles half a million of these, and the executor consults
    ``sends`` / ``recvs`` / ``touches_memory`` for every one, so both
    construction and attribute reads sit on the hot path.  The flag booleans
    are precomputed here (plain bools, not Flag arithmetic).
    """

    __slots__ = ("name", "action", "loop", "step", "chunk_index", "nbytes",
                 "send_peer", "recv_peer", "sends", "recvs", "touches_memory")

    def __init__(self, name, action, loop, step, chunk_index, nbytes,
                 send_peer=None, recv_peer=None):
        self.name = name
        self.action = action
        self.loop = loop
        self.step = step
        self.chunk_index = chunk_index
        self.nbytes = nbytes
        self.send_peer = send_peer
        self.recv_peer = recv_peer
        bits = action.value
        self.sends = bits & _SEND_BITS != 0
        self.recvs = bits & _RECV_BITS != 0
        self.touches_memory = bits & _MEMORY_BITS != 0

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

    __slots__ = ("outcome", "primitive", "wait_key", "busy_time_us")

    def __init__(self, outcome, primitive=None, wait_key=None, busy_time_us=0.0):
        self.outcome = outcome
        self.primitive = primitive
        self.wait_key = wait_key
        self.busy_time_us = busy_time_us


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
        #: Reused SUCCESS outcome: one is produced per executed primitive and
        #: immediately consumed by every caller, so allocating a fresh object
        #: each time only feeds the garbage collector.
        self._success_outcome = PrimitiveOutcome(_SUCCESS)
        #: Optional per-primitive execution trace: a flat ``array('d')`` of
        #: ``(start_us, end_us, busy_us)`` triples appended per executed
        #: primitive, attached by ``obs.analysis`` when time attribution is
        #: requested.  ``None`` (the default) keeps the hot path at one load
        #: and one identity check per primitive.
        self.trace = None

    # -- introspection ----------------------------------------------------------

    @property
    def remaining(self):
        return len(self.primitives) - self.position

    def done(self):
        return self.position >= len(self.primitives)

    def current(self):
        if self.done():
            return None
        return self.primitives[self.position]

    def progress_fraction(self):
        if not self.primitives:
            return 1.0
        return self.position / len(self.primitives)

    # -- context save/restore ----------------------------------------------------

    def save_dynamic_context(self):
        """Return the dynamic context (resume point) of this collective part."""
        return {"position": self.position}

    def load_dynamic_context(self, context):
        position = context["position"]
        if not 0 <= position <= len(self.primitives):
            raise InvalidStateError(
                f"invalid saved position {position} for collective {self.collective_id}"
            )
        self.position = position

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

    def peek_blockers(self, now_us, max_wait_us=None):
        """Return the outcome the next execution attempt would have, without
        executing and without charging any time (used by schedulers)."""
        if self.done():
            return PrimitiveOutcome(ExecOutcome.ALL_DONE)
        primitive = self.current()
        if primitive.recvs and primitive.recv_peer is not None:
            recv_channel = self._recv_channel(primitive)
            if not recv_channel.readable(now_us, max_wait_us):
                return PrimitiveOutcome(
                    ExecOutcome.WAIT_RECV, primitive, recv_channel.readable_key
                )
        if primitive.sends and primitive.send_peer is not None:
            send_channel = self._send_channel(primitive)
            if not send_channel.writable():
                return PrimitiveOutcome(
                    ExecOutcome.WAIT_SEND, primitive, send_channel.writable_key
                )
        return PrimitiveOutcome(ExecOutcome.SUCCESS, primitive)

    def late_arrival_us(self, outcome):
        """Arrival time of the head message a ``WAIT_RECV`` outcome judged
        too far in the future, or ``None`` when no message is waiting."""
        if outcome.outcome is not _WAIT_RECV:
            return None
        channel = self._recv_channels.get(outcome.primitive.recv_peer)
        if channel is None or channel.invalidated or not channel._fifo:
            return None
        return channel._fifo[0].ready_time_us

    def try_execute_current(self, clock, engine=None, max_wait_us=None):
        """Attempt the current primitive; on success advance ``clock`` and move on.

        Returns a :class:`PrimitiveOutcome`.  A WAIT_* outcome does not charge
        time — busy-wait accounting (spinning or blocking) is the caller's
        responsibility, because NCCL and DFCCL handle it differently.
        ``max_wait_us`` bounds how far into the future the executor will wait
        for in-flight data (DFCCL passes its remaining spin budget).
        """
        position = self.position
        primitives = self.primitives
        if position >= len(primitives):
            return PrimitiveOutcome(_ALL_DONE)

        primitive = primitives[position]
        recv_channel = None
        send_channel = None

        # The readable/writable checks are inlined over the channel FIFOs
        # (same-package fast path, one or two checks per primitive of every
        # collective in the simulation); `Channel.readable`/`writable` remain
        # the reference semantics for every other caller.
        recv_peer = primitive.recv_peer
        if recv_peer is not None and primitive.recvs:
            recv_channel = self._recv_channels.get(recv_peer)
            if recv_channel is None:
                recv_channel = self._recv_channel(primitive)
            fifo = recv_channel._fifo
            if recv_channel.invalidated or not fifo or (
                max_wait_us is not None
                and fifo[0].ready_time_us > clock.now + max_wait_us
            ):
                return PrimitiveOutcome(
                    _WAIT_RECV, primitive, recv_channel.readable_key
                )
        send_peer = primitive.send_peer
        if send_peer is not None and primitive.sends:
            send_channel = self._send_channels.get(send_peer)
            if send_channel is None:
                send_channel = self._send_channel(primitive)
            if send_channel.invalidated or \
                    len(send_channel._fifo) >= send_channel.capacity:
                return PrimitiveOutcome(
                    _WAIT_SEND, primitive, send_channel.writable_key
                )

        # Both wait checks passed: the primitive executes now.  ``start`` is
        # the rank's clock *before* any arrival spin, so the analysis layer
        # can split recv wait from dilated work.
        trace = self.trace
        if trace is not None:
            trace_start = clock.now

        epoch = self.communicator.interconnect.link_epoch
        if epoch != self._cache_epoch:
            self._links.clear()
            self._busy_cache.clear()
            self._cache_epoch = epoch
        if send_channel is not None:
            peer = primitive.send_peer
            link = self._links.get(peer)
            if link is None:
                link = self.communicator.link(self.group_rank, peer)
                self._links[peer] = link
        else:
            peer = None
            link = None
        busy_key = (primitive.nbytes, peer, primitive.touches_memory)
        busy = self._busy_cache.get(busy_key)
        if busy is None:
            busy = self.cost_model.primitive_time_us(
                primitive.nbytes,
                link=link,
                sends=send_channel is not None,
                touches_memory=primitive.touches_memory,
            )
            self._busy_cache[busy_key] = busy

        if recv_channel is not None:
            message = recv_channel._fifo.popleft()
            recv_channel.popped_count += 1
            # Spin until the in-flight data actually arrives, then consume
            # it; the message shell is dead now and returns to the freelist.
            arrival = message.ready_time_us
            if arrival > clock.now:
                clock.now = arrival
            recv_channel._free.append(message)
            if engine is not None:
                # Fast path: a signal with no registered waiter is a no-op, so
                # consult the engine's public waiter table before paying the
                # call.
                key = recv_channel.writable_key
                if key in engine.waiters_by_key:
                    engine.signal(key, clock.now)

        # clock.advance(busy) inlined: busy is a cached non-negative cost.
        clock.now += busy * clock.rate

        if send_channel is not None:
            free = send_channel._free
            if free:
                message = free.pop()
                message.collective_id = self.collective_id
                message.chunk_index = primitive.chunk_index
                message.step = primitive.step
                message.nbytes = primitive.nbytes
                message.ready_time_us = clock.now
            else:
                message = ChunkMessage(
                    collective_id=self.collective_id,
                    chunk_index=primitive.chunk_index,
                    step=primitive.step,
                    nbytes=primitive.nbytes,
                    ready_time_us=clock.now,
                )
            send_channel._fifo.append(message)
            send_channel.pushed_count += 1
            send_channel.bytes_pushed += primitive.nbytes
            if engine is not None:
                key = send_channel.readable_key
                if key in engine.waiters_by_key:
                    engine.signal(key, clock.now)

        if trace is not None:
            trace.append(trace_start)
            trace.append(clock.now)
            trace.append(busy)

        self.position = position + 1
        self.executed_primitives += 1
        outcome = self._success_outcome
        outcome.primitive = primitive
        outcome.busy_time_us = busy
        return outcome
