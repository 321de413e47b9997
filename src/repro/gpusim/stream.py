"""CUDA stream model.

A stream is a FIFO of work items.  The head item of a stream may start only
when (a) the GPU has enough free block slots for the kernel and (b) no GPU
synchronization barrier issued *before* the item is still pending.  These two
rules are exactly the "single queue" and "GPU synchronization" ingredients of
the basic deadlock situations in Fig. 1 of the paper.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


class Stream:
    """An in-order launch queue bound to one GPU."""

    def __init__(self, name):
        self.name = name
        #: Enqueued, not yet launched kernels as ``(sequence, kernel)``.
        self.pending = deque()
        #: Kernels from this stream currently resident on the GPU.  CUDA
        #: serializes kernels within a stream, so the next item may only
        #: launch when this drops to zero.
        self.active = 0

    def __repr__(self):
        return f"<Stream {self.name} pending={len(self.pending)}>"


@dataclass
class SyncBarrier:
    """A device-wide synchronization point.

    ``outstanding`` holds the kernels that were enqueued or resident when the
    barrier was issued; the barrier clears once all of them completed.  Work
    enqueued after ``sequence`` may not launch while the barrier is pending —
    this is the resource dependency the paper attributes to GPU
    synchronization (Sec. 2.3).
    """

    barrier_id: int
    sequence: int
    issue_time_us: float
    outstanding: set = field(default_factory=set)
    cleared: bool = False

    def on_kernel_complete(self, kernel):
        self.outstanding.discard(kernel)
        if not self.outstanding:
            self.cleared = True
        return self.cleared

    @property
    def wait_key(self):
        return ("sync-barrier", self.barrier_id)
