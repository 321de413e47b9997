"""Connectors (inter-GPU channels) and communicators.

A :class:`Channel` models one direction of a connector pair: a bounded,
lock-free ring buffer through which the sender GPU pushes chunks and from which
the receiver GPU pops them.  A chunk in flight is just the virtual time at
which its data becomes visible to the receiver (the transfer latency over the
physical link): the channel is a deque of arrival times, and
:meth:`~repro.collectives.primitives.PrimitiveExecutor.burst` appends to it on
a send and pops from it on a receive.

Data written to a channel stays there until the receiver pops it — this is the
*persistent visibility* property of Sec. 4.1 that makes decentralized
preemption correct: preempting the sender after the write, or the receiver
before the read, never loses data.
"""

from __future__ import annotations

from collections import deque

from repro.common.errors import ConfigurationError


class Channel:
    """A bounded FIFO of arrival times connecting a sender GPU to a receiver
    GPU.

    It is readable when ``arrivals`` is non-empty and writable while
    ``len(arrivals) < capacity``, unless invalidated.  ``channel_id`` names
    it in its wait keys; the communicator that creates it draws the id from
    its run's engine.
    """

    #: Default connector FIFO depth (NCCL uses 8 slots per channel).
    DEFAULT_CAPACITY = 8

    def __init__(self, channel_id, src_device, dst_device,
                 capacity=DEFAULT_CAPACITY):
        self.channel_id = channel_id
        self.src_device = src_device
        self.dst_device = dst_device
        self.capacity = capacity
        #: Arrival time (virtual us) of each chunk in flight, oldest first.
        self.arrivals = deque()
        #: Chunks and bytes ever pushed (``obs.links`` reads both).
        self.pushed_count = 0
        self.bytes_pushed = 0
        self.invalidated = False
        # Wait keys are prebuilt: the executor touches them on every primitive
        # attempt, and a property constructing a fresh tuple each time showed
        # up in large-scale profiles.
        #: Signalled when a chunk is pushed (receiver may make progress).
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
        self.arrivals.clear()

    def __repr__(self):
        return (
            f"<Channel {self.channel_id} {self.src_device}->{self.dst_device} "
            f"occ={len(self.arrivals)}/{self.capacity}>"
        )


class Communicator:
    """A group of devices plus the channels connecting ring neighbours.

    Ranks inside a communicator are *group ranks* (0..group_size-1); the
    mapping to cluster devices is fixed at construction.  Channels are created
    lazily for any (src, dst) group-rank pair so that both ring and
    point-to-point patterns work.  The communicator's id and its channels'
    ids come from its devices' engine, which keeps each channel for fault
    analysis to resolve a ``chan-*`` wait key.
    """

    def __init__(self, devices, interconnect):
        if len(devices) < 1:
            raise ConfigurationError("a communicator needs at least one device")
        self.comm_id = devices[0].engine.next_id("communicator")
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
            engine = self.devices[0].engine
            channel_id = engine.next_id("channel")
            channel = Channel(channel_id, self.device_id(src_rank),
                              self.device_id(dst_rank))
            engine.keep("channel", channel_id, channel)
            self._channels[key] = channel
        return channel

    def link(self, src_rank, dst_rank):
        """Interconnect link between two group ranks."""
        return self.interconnect.link(self.device_id(src_rank), self.device_id(dst_rank))

    def channels(self):
        return dict(self._channels)

    def reset_channels(self):
        """Drop all channels, so the next collective on this communicator
        starts from empty connectors (the communicator pool calls it when a
        communicator is released for reuse)."""
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
