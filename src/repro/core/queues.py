"""Submission queue (SQ) and the three completion queue (CQ) variants.

The SQ is a single-producer-single-consumer bounded FIFO: one CPU thread
writes SQEs and the rank's daemon kernel, the only reader, pops them in
order.

The CQ exists in the three variants evaluated in Fig. 7(c):

* ``VanillaRingCQ`` — a textbook ring buffer: five host-memory operations plus
  a memory fence per CQE write.
* ``OptimizedRingCQ`` — encodes the collective ID and the tail in one 64-bit
  atomic, four host-memory operations and no fence.
* ``OptimizedCasCQ`` — abandons ring semantics: one ``atomicCAS_system`` into
  any writable slot per CQE.

All variants expose ``write_cost_us`` so the daemon kernel can charge the
correct virtual time, and all behave like real bounded queues (including
full/empty conditions) so their logic can be unit- and property-tested.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

from repro.common.errors import QueueEmptyError, QueueFullError
from repro.core.config import (
    CAS_SYSTEM_COST_US,
    CQ_CAPACITY,
    HOST_MEMORY_OP_COST_US,
    MEMORY_FENCE_COST_US,
    SQ_CAPACITY,
)


@dataclass
class Sqe:
    """Submission queue element: one collective invocation request."""

    coll_id: int
    invocation_id: int
    priority: int = 0
    exiting: bool = False
    submit_time_us: float = 0.0


@dataclass
class Cqe:
    """Completion queue entry: carries only the completed collective's ID."""

    coll_id: int
    invocation_id: int
    complete_time_us: float = 0.0


class SubmissionQueue:
    """Bounded FIFO written by the host and read by the rank's daemon."""

    def __init__(self, capacity=SQ_CAPACITY):
        if capacity <= 0:
            raise ValueError("SQ capacity must be positive")
        self.capacity = capacity
        self._sqes = deque()

    def writable(self):
        return len(self._sqes) < self.capacity

    def push(self, sqe):
        if not self.writable():
            raise QueueFullError("submission queue is full")
        self._sqes.append(sqe)
        return sqe

    def pop(self):
        if not self._sqes:
            raise QueueEmptyError("submission queue is empty")
        return self._sqes.popleft()

    def __len__(self):
        return len(self._sqes)


class CompletionQueueBase:
    """Common behaviour of the CQ variants."""

    variant = "base"

    def __init__(self, capacity=CQ_CAPACITY):
        if capacity <= 0:
            raise ValueError("CQ capacity must be positive")
        self.capacity = capacity
        self.written = 0
        self.consumed = 0

    # -- costs ---------------------------------------------------------------------

    def write_cost_us(self):
        """Virtual time the daemon kernel spends writing one CQE."""
        raise NotImplementedError

    # -- queue behaviour --------------------------------------------------------------

    def writable(self):
        raise NotImplementedError

    def push(self, cqe):
        raise NotImplementedError

    def pop(self):
        raise NotImplementedError

    def __len__(self):
        return self.written - self.consumed


class VanillaRingCQ(CompletionQueueBase):
    """Classic MPSC ring buffer: 5 host-memory ops plus a fence per write."""

    variant = "vanilla"
    HOST_MEMORY_OPS = 5

    def __init__(self, capacity=CQ_CAPACITY):
        super().__init__(capacity)
        #: The stored CQEs by slot index; an absent slot is empty.
        self._slots = {}
        self._head = 0
        self._tail = 0

    def write_cost_us(self):
        return (
            self.HOST_MEMORY_OPS * HOST_MEMORY_OP_COST_US
            + MEMORY_FENCE_COST_US
        )

    def writable(self):
        return (self._tail - self._head) < self.capacity

    def push(self, cqe):
        if not self.writable():
            raise QueueFullError("completion queue is full")
        self._slots[self._tail % self.capacity] = cqe
        self._tail += 1
        self.written += 1
        return cqe

    def pop(self):
        if self._head >= self._tail:
            raise QueueEmptyError("completion queue is empty")
        cqe = self._slots.pop(self._head % self.capacity)
        self._head += 1
        self.consumed += 1
        return cqe


class OptimizedRingCQ(VanillaRingCQ):
    """Ring buffer with the CQE and tail packed into one 64-bit atomic write.

    Exactly four host-memory operations and no fence are needed (Sec. 5); the
    poller validates a CQE by comparing the head with the tail embedded in the
    64-bit word, which we model by storing ``(cqe, tail)`` tuples.
    """

    variant = "optimized-ring"
    HOST_MEMORY_OPS = 4

    def write_cost_us(self):
        return self.HOST_MEMORY_OPS * HOST_MEMORY_OP_COST_US

    def push(self, cqe):
        if not self.writable():
            raise QueueFullError("completion queue is full")
        packed_tail = self._tail + 1
        self._slots[self._tail % self.capacity] = (cqe, packed_tail)
        self._tail = packed_tail
        self.written += 1
        return cqe

    def pop(self):
        if self._head >= self._tail:
            raise QueueEmptyError("completion queue is empty")
        cqe, packed_tail = self._slots.pop(self._head % self.capacity)
        if packed_tail <= self._head:
            raise QueueEmptyError("stale CQE: packed tail does not validate")
        self._head += 1
        self.consumed += 1
        return cqe


class OptimizedCasCQ(CompletionQueueBase):
    """Slot-array CQ: a single ``atomicCAS_system`` writes the collective ID.

    The CQE only carries the completed collective's ID, so ring-buffer
    ordering is unnecessary: a block CAS-writes into the lowest writable
    slot; the poller scans the array from where it last stopped, consumes
    valid IDs and marks slots writable again.

    The simulator keeps the occupied slot indices sorted, so both ends find
    their slot by bisection instead of walking all ``capacity`` slots; the
    slot chosen, and so the pop order, is exactly what the linear scan
    picks.  Only the stored CQEs take memory, keyed by slot index.
    """

    variant = "optimized-cas"

    def __init__(self, capacity=CQ_CAPACITY):
        super().__init__(capacity)
        self._slots = {}
        self._occupied = []
        self._scan_pos = 0

    def write_cost_us(self):
        return CAS_SYSTEM_COST_US

    def writable(self):
        return len(self._occupied) < self.capacity

    def push(self, cqe):
        occupied = self._occupied
        if len(occupied) >= self.capacity:
            raise QueueFullError("completion queue is full")
        # Indices are distinct, so ``occupied[i] >= i``; the lowest free slot
        # is the first position where equality breaks.
        low, high = 0, len(occupied)
        while low < high:
            mid = (low + high) // 2
            if occupied[mid] == mid:
                low = mid + 1
            else:
                high = mid
        occupied.insert(low, low)
        self._slots[low] = cqe
        self.written += 1
        return cqe

    def pop(self):
        occupied = self._occupied
        if not occupied:
            raise QueueEmptyError("completion queue is empty")
        position = bisect_left(occupied, self._scan_pos)
        if position == len(occupied):
            position = 0
        index = occupied.pop(position)
        cqe = self._slots.pop(index)
        self._scan_pos = (index + 1) % self.capacity
        self.consumed += 1
        return cqe


def make_completion_queue(variant, capacity=CQ_CAPACITY):
    """Factory over the three CQ variants of Fig. 7(c)."""
    if variant == "vanilla":
        return VanillaRingCQ(capacity)
    if variant == "optimized-ring":
        return OptimizedRingCQ(capacity)
    if variant == "optimized-cas":
        return OptimizedCasCQ(capacity)
    raise ValueError(f"unknown completion queue variant {variant!r}")
