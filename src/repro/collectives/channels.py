"""Connectors (inter-GPU channels) and communicators.

A :class:`Channel` models one direction of a connector pair: a bounded,
lock-free ring buffer through which the sender GPU pushes chunk messages and
from which the receiver GPU pops them.  Messages carry the virtual time at
which their data becomes visible to the receiver, which models the transfer
latency over the physical link.

Data written to a channel stays there until the receiver pops it — this is the
*persistent visibility* property of Sec. 4.1 that makes decentralized
preemption correct: preempting the sender after the write, or the receiver
before the read, never loses data.
"""

from __future__ import annotations

import itertools
import weakref
from collections import deque

from repro.common.errors import ConfigurationError, InvalidStateError

_channel_ids = itertools.count()
_communicator_ids = itertools.count()

#: Channels by id, for wait-key attribution (deadlock/fault analysis needs to
#: know which device would have signalled a ``chan-*`` key).
_channels_by_id = weakref.WeakValueDictionary()


def channel_by_id(channel_id):
    """Resolve a channel id from an engine wait key, or ``None`` if gone."""
    return _channels_by_id.get(channel_id)


class ChunkMessage:
    """One chunk travelling through a channel."""

    __slots__ = ("collective_id", "chunk_index", "step", "nbytes", "ready_time_us")

    def __init__(self, collective_id, chunk_index, step, nbytes, ready_time_us):
        self.collective_id = collective_id
        self.chunk_index = chunk_index
        self.step = step
        self.nbytes = nbytes
        self.ready_time_us = ready_time_us

    def __repr__(self):
        return (
            f"ChunkMessage(coll={self.collective_id}, chunk={self.chunk_index}, "
            f"step={self.step}, {self.nbytes}B, ready={self.ready_time_us:.2f}us)"
        )


class Channel:
    """A bounded FIFO connecting a sender GPU to a receiver GPU."""

    #: Default connector FIFO depth (NCCL uses 8 slots per channel).
    DEFAULT_CAPACITY = 8

    def __init__(self, src_device, dst_device, capacity=DEFAULT_CAPACITY):
        self.channel_id = next(_channel_ids)
        self.src_device = src_device
        self.dst_device = dst_device
        self.capacity = capacity
        self._fifo = deque()
        #: Freelist of consumed :class:`ChunkMessage` shells for the executor
        #: fast path: a popped message is dead the moment its arrival time is
        #: read, so its shell is recycled for the next push on this channel
        #: instead of feeding the allocator (bounded by the FIFO capacity).
        self._free = []
        self.pushed_count = 0
        self.popped_count = 0
        self.bytes_pushed = 0
        self.invalidated = False
        _channels_by_id[self.channel_id] = self
        # Wait keys are prebuilt: the executor touches them on every primitive
        # attempt, and a property constructing a fresh tuple each time showed
        # up in large-scale profiles.
        #: Signalled when a message is pushed (receiver may make progress).
        self.readable_key = ("chan-readable", self.channel_id)
        #: Signalled when a slot frees up (sender may make progress).
        self.writable_key = ("chan-writable", self.channel_id)

    # -- invalidation --------------------------------------------------------------

    def invalidate(self):
        """Mark the channel unusable and drop its in-flight data.

        Called when one endpoint failed: the connector's memory is gone, so
        pending chunks are lost and no further push or pop may succeed.  A
        surviving peer polling the channel simply never sees it become
        readable/writable again — which is exactly the condition that bounds
        (DFCCL) or does not bound (NCCL) its busy-wait.
        """
        self.invalidated = True
        self._fifo.clear()

    # -- sender side -------------------------------------------------------------

    def writable(self):
        if self.invalidated:
            return False
        return len(self._fifo) < self.capacity

    def push(self, message):
        if self.invalidated:
            raise InvalidStateError(
                f"channel {self.channel_id} is invalidated: push attempted"
            )
        if len(self._fifo) >= self.capacity:
            raise ConfigurationError(
                f"channel {self.channel_id} full: push attempted without checking writable()"
            )
        self._fifo.append(message)
        self.pushed_count += 1
        self.bytes_pushed += message.nbytes
        return message

    # -- receiver side -----------------------------------------------------------

    def readable(self, now_us=None, max_wait_us=None):
        """True when a head message exists that the receiver is willing to wait for.

        A message is always considered readable once it has been pushed (its
        data will arrive at ``ready_time_us``); the receiver accounts for the
        remaining arrival delay when it pops.  When ``max_wait_us`` is given,
        a message whose arrival is further than that in the receiver's future
        is treated as not readable — DFCCL uses this to bound busy-waiting.
        """
        if self.invalidated or not self._fifo:
            return False
        if max_wait_us is None or now_us is None:
            return True
        return self._fifo[0].ready_time_us <= now_us + max_wait_us

    def head(self):
        return self._fifo[0] if self._fifo else None

    def pop(self, now_us):
        if not self._fifo:
            raise ConfigurationError(
                f"channel {self.channel_id} empty: pop attempted at t={now_us:.2f}us"
            )
        self.popped_count += 1
        return self._fifo.popleft()

    @property
    def occupancy(self):
        return len(self._fifo)

    def __repr__(self):
        return (
            f"<Channel {self.channel_id} {self.src_device}->{self.dst_device} "
            f"occ={self.occupancy}/{self.capacity}>"
        )


class Communicator:
    """A group of devices plus the channels connecting ring neighbours.

    Ranks inside a communicator are *group ranks* (0..group_size-1); the
    mapping to cluster devices is fixed at construction.  Channels are created
    lazily for any (src, dst) group-rank pair so that both ring and
    point-to-point patterns work.
    """

    def __init__(self, devices, interconnect):
        if len(devices) < 1:
            raise ConfigurationError("a communicator needs at least one device")
        self.comm_id = next(_communicator_ids)
        self.devices = list(devices)
        self.interconnect = interconnect
        self._channels = {}
        self.invalidated = False

    @property
    def size(self):
        return len(self.devices)

    def device(self, group_rank):
        return self.devices[group_rank]

    def device_id(self, group_rank):
        return self.devices[group_rank].device_id

    def channel(self, src_rank, dst_rank):
        """Return (creating on demand) the channel from ``src_rank`` to ``dst_rank``."""
        key = (src_rank, dst_rank)
        channel = self._channels.get(key)
        if channel is None:
            channel = Channel(self.device_id(src_rank), self.device_id(dst_rank))
            self._channels[key] = channel
        return channel

    def link(self, src_rank, dst_rank):
        """Interconnect link between two group ranks."""
        return self.interconnect.link(self.device_id(src_rank), self.device_id(dst_rank))

    def ring_next(self, group_rank):
        return (group_rank + 1) % self.size

    def ring_prev(self, group_rank):
        return (group_rank - 1) % self.size

    def channels(self):
        return dict(self._channels)

    def reset_channels(self):
        """Drop all channels (used between independent experiment repetitions)."""
        self._channels.clear()

    def invalidate(self):
        """Invalidate the communicator and every channel it created.

        A failure-invalidated communicator must never be reused: its
        connectors may hold chunks of a collective that died mid-flight
        (Sec. 4.5's correctness argument relies on connectors never being
        shared across collectives, and recovery extends that to failures).
        """
        self.invalidated = True
        for channel in self._channels.values():
            channel.invalidate()

    def __repr__(self):
        members = ", ".join(str(device.device_id) for device in self.devices)
        return f"<Communicator {self.comm_id} [{members}]>"
