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


@dataclass
class StreamItem:
    """One entry in a stream's FIFO."""

    kernel: object
    sequence: int
    enqueue_time_us: float
    launched: bool = False


class Stream:
    """An in-order launch queue bound to one GPU."""

    def __init__(self, name, device, is_default=False):
        self.name = name
        self.device = device
        self.is_default = is_default
        self._items = deque()
        self.launched_count = 0
        self.completed_count = 0
        #: Kernels from this stream currently resident on the GPU.  CUDA
        #: serializes kernels within a stream, so the next item may only
        #: launch when this drops to zero.
        self.active = 0

    def enqueue(self, kernel, sequence, time_us):
        """Append a kernel to the stream; it will launch in FIFO order."""
        item = StreamItem(kernel=kernel, sequence=sequence, enqueue_time_us=time_us)
        self._items.append(item)
        return item

    def head(self):
        """Return the oldest not-yet-launched item, or ``None``."""
        while self._items and self._items[0].launched:
            self._items.popleft()
        return self._items[0] if self._items else None

    def pop_head(self):
        """Mark the head as launched and remove it."""
        item = self.head()
        if item is None:
            raise LookupError(f"stream {self.name} has no pending item")
        item.launched = True
        self._items.popleft()
        self.launched_count += 1
        return item

    def drop_pending(self):
        """Discard every not-yet-launched item (the device failed)."""
        dropped = [item for item in self._items if not item.launched]
        self._items = deque(item for item in self._items if item.launched)
        return dropped

    @property
    def pending(self):
        """Number of enqueued-but-not-launched kernels."""
        return sum(1 for item in self._items if not item.launched)

    def pending_items(self):
        return [item for item in self._items if not item.launched]

    def __len__(self):
        return len(self._items)

    def __repr__(self):
        return f"<Stream {self.name} pending={self.pending}>"


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
