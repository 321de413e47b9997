"""Collective context management (Sec. 4.2 and the Sec. 5 optimizations).

The *static context* of a collective holds its unchanging configuration (peer
set, primitive-sequence composition): it is the collective's
:class:`~repro.collectives.plan.CollectivePlan`.  The *dynamic context* holds
the resume point: it is the rank's
:class:`~repro.collectives.primitives.PrimitiveExecutor` ``position``.  The
context of the currently scheduled collective is cached in shared-memory
*active context slots* managed as a direct-mapped cache with lazy saving;
this module charges the load and save costs of that cache.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.core.config import (
    ACTIVE_CONTEXT_SLOTS,
    ACTIVE_SLOT_BYTES,
    CONTEXT_BYTES_PER_COLLECTIVE,
    CONTEXT_LOAD_COST_US,
    CONTEXT_SAVE_COST_US,
    COUNTER_BYTES_PER_COLLECTIVE,
    FIXED_GLOBAL_BYTES,
    TASK_QUEUE_ENTRY_BYTES,
)


@dataclass
class ContextStats:
    """Counters for the overhead analysis of Fig. 7 and Fig. 11."""

    saves: int = 0
    lazy_save_skips: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    load_time_us: float = 0.0
    save_time_us: float = 0.0


@dataclass
class _Slot:
    coll_id: int = None
    dirty: bool = False


class ActiveContextCache:
    """Direct-mapped cache of active context slots in shared memory.

    Loading a context costs ``CONTEXT_LOAD_COST_US``; saving costs
    ``CONTEXT_SAVE_COST_US`` and is *lazy*: a collective that made no progress
    since it was loaded is not written back (Sec. 5).  A resident context
    that progressed is *dirty*: the daemon sets its slot's ``dirty`` bit
    (:meth:`slot_for`) after a step that executed primitives.
    """

    def __init__(self, clock):
        self.clock = clock
        self.slots = [_Slot() for _ in range(ACTIVE_CONTEXT_SLOTS)]
        self.stats = ContextStats()
        #: Slot of each collective id seen.
        self._slot_of = {}

    def slot_for(self, coll_id):
        """The slot ``coll_id`` maps to."""
        slot = self._slot_of.get(coll_id)
        if slot is None:
            # Direct mapping must handle both int ids and the multi-tenant
            # (job, local id) tuples.  String hashing via hash() is
            # randomized per process (PYTHONHASHSEED), which would break
            # seeded reproducibility, so tuples map through a stable CRC.
            if isinstance(coll_id, int):
                index = coll_id
            else:
                index = zlib.crc32(repr(coll_id).encode())
            slot = self._slot_of[coll_id] = self.slots[index % len(self.slots)]
        return slot

    def _charge(self, cost_us):
        self.clock.advance(cost_us)
        return cost_us

    def load(self, coll_id):
        """Ensure ``coll_id``'s context is resident; returns the charged time."""
        slot = self.slot_for(coll_id)
        charged = 0.0
        if slot.coll_id == coll_id:
            self.stats.cache_hits += 1
            return charged
        self.stats.cache_misses += 1
        if slot.coll_id is not None and slot.dirty:
            charged += self._charge(CONTEXT_SAVE_COST_US)
            self.stats.saves += 1
            self.stats.save_time_us += CONTEXT_SAVE_COST_US
        charged += self._charge(CONTEXT_LOAD_COST_US)
        self.stats.load_time_us += CONTEXT_LOAD_COST_US
        slot.coll_id = coll_id
        slot.dirty = False
        return charged

    def hit_pattern(self, coll_ids):
        """Whether each load of ``coll_ids``, made in this order, would hit
        (a tuple of bools); nothing is loaded."""
        held = {}
        hits = []
        for coll_id in coll_ids:
            slot = self.slot_for(coll_id)
            hits.append(held.get(id(slot), slot.coll_id) == coll_id)
            held[id(slot)] = coll_id
        return tuple(hits)

    def save_on_preempt(self, coll_id, progressed):
        """Save the dynamic context when a collective is preempted.

        Lazy saving: only collectives that progressed since their last load
        are written back.  Returns the charged time.
        """
        slot = self.slot_for(coll_id)
        if not progressed:
            self.stats.lazy_save_skips += 1
            return 0.0
        charged = self._charge(CONTEXT_SAVE_COST_US)
        self.stats.saves += 1
        self.stats.save_time_us += CONTEXT_SAVE_COST_US
        if slot.coll_id == coll_id:
            slot.dirty = False
        return charged

    def evict(self, coll_id):
        slot = self.slot_for(coll_id)
        if slot.coll_id == coll_id:
            slot.coll_id = None
            slot.dirty = False


def memory_overhead_report(num_collectives, num_blocks=1):
    """Workload-independent memory overheads (Sec. 6.2).

    Returns a dict with per-block shared memory, per-block global memory and
    the global memory shared by all blocks, in bytes.
    """
    shared_per_block = (
        num_collectives * TASK_QUEUE_ENTRY_BYTES
        + ACTIVE_CONTEXT_SLOTS * ACTIVE_SLOT_BYTES
    )
    global_per_block = num_collectives * CONTEXT_BYTES_PER_COLLECTIVE
    global_shared = (
        num_collectives * COUNTER_BYTES_PER_COLLECTIVE
        + FIXED_GLOBAL_BYTES
    )
    return {
        "shared_bytes_per_block": shared_per_block,
        "global_bytes_per_block": global_per_block,
        "global_bytes_shared": global_shared,
        "num_blocks": num_blocks,
        "num_collectives": num_collectives,
    }
