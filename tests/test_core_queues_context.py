"""Tests for DFCCL's SQ/CQ variants, context management and configuration."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import QueueEmptyError, QueueFullError
from repro.common.vtime import VirtualClock
from repro.core import DfcclConfig
from repro.core.config import ACTIVE_CONTEXT_SLOTS
from repro.core.context import ActiveContextCache, memory_overhead_report
from repro.core.queues import (
    Cqe,
    OptimizedCasCQ,
    OptimizedRingCQ,
    Sqe,
    SubmissionQueue,
    VanillaRingCQ,
    make_completion_queue,
)

#: The fields DfcclConfig had before the fixed values became module
#: constants in ``repro.core.config``.
REMOVED_CONFIG_FIELDS = (
    "channel_capacity", "cost_model", "sq_capacity", "cq_capacity",
    "initial_spin_threshold", "spin_position_decay", "min_spin_threshold",
    "spin_success_boost", "naive_spin_threshold", "spin_batch",
    "primitives_per_step", "quit_period_us", "idle_poll_interval_us",
    "poller_interval_us", "relaunch_delay_us", "callback_cost_us",
    "recovery_poll_interval_us", "max_recoveries_per_collective",
    "active_context_slots", "context_bytes_per_collective",
    "task_queue_entry_bytes", "active_slot_bytes",
    "counter_bytes_per_collective", "fixed_global_bytes", "sqe_read_cost_us",
    "sqe_parse_cost_us", "context_load_cost_us", "context_save_cost_us",
    "host_memory_op_cost_us", "memory_fence_cost_us", "cas_system_cost_us",
    "sq_poll_cost_us",
)


class TestDfcclConfig:
    def test_defaults_validate(self):
        assert DfcclConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("algorithm", "bogus"), ("cq_variant", "bogus"), ("ordering", "bogus"),
        ("spin_policy", "bogus"), ("crash_detect_timeout_us", 0.0),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            DfcclConfig(**{field: value}).validate()

    def test_only_varied_values_are_settable(self):
        assert [field.name for field in dataclasses.fields(DfcclConfig)] == [
            "chunk_bytes", "algorithm", "cq_variant", "ordering",
            "spin_policy", "recovery_enabled", "crash_detect_timeout_us",
        ]
        assert not hasattr(DfcclConfig, "with_overrides")

    @pytest.mark.parametrize("field", REMOVED_CONFIG_FIELDS)
    def test_removed_field_rejected(self, field):
        with pytest.raises(TypeError):
            DfcclConfig(**{field: None})


class TestSubmissionQueue:
    def test_fifo_per_consumer(self):
        sq = SubmissionQueue(capacity=8)
        sq.push(Sqe(coll_id=1, invocation_id=0))
        sq.push(Sqe(coll_id=2, invocation_id=0))
        assert sq.pop().coll_id == 1
        assert sq.pop().coll_id == 2

    def test_pop_empty_raises(self):
        sq = SubmissionQueue(capacity=4)
        with pytest.raises(QueueEmptyError):
            sq.pop()

    def test_full_queue_rejects_push(self):
        sq = SubmissionQueue(capacity=2)
        sq.push(Sqe(coll_id=1, invocation_id=0))
        sq.push(Sqe(coll_id=2, invocation_id=0))
        with pytest.raises(QueueFullError):
            sq.push(Sqe(coll_id=3, invocation_id=0))

    def test_slot_recycled_after_all_consumers_read(self):
        # The daemon is the SQ's only reader: its pop frees the slot.
        sq = SubmissionQueue(capacity=1)
        sq.push(Sqe(coll_id=1, invocation_id=0))
        assert not sq.writable()
        sq.pop()
        assert sq.writable()

    def test_len_counts_slots_until_every_consumer_read_them(self):
        sq = SubmissionQueue(capacity=4)
        for coll_id in range(3):
            sq.push(Sqe(coll_id=coll_id, invocation_id=0))
        assert len(sq) == 3
        sq.pop()
        assert len(sq) == 2
        sq.pop()
        sq.pop()
        assert len(sq) == 0 and not sq

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_consumer_sees_exactly_the_pushed_sequence(self, ids):
        sq = SubmissionQueue(capacity=128)
        for coll_id in ids:
            sq.push(Sqe(coll_id=coll_id, invocation_id=0))
        popped = [sq.pop().coll_id for _ in ids]
        assert popped == ids


class TestCompletionQueues:
    @pytest.mark.parametrize("variant", ["vanilla", "optimized-ring", "optimized-cas"])
    def test_push_pop_roundtrip(self, variant):
        cq = make_completion_queue(variant, capacity=16)
        for index in range(10):
            cq.push(Cqe(coll_id=index, invocation_id=0))
        popped = {cq.pop().coll_id for _ in range(10)}
        assert popped == set(range(10))

    @pytest.mark.parametrize("variant", ["vanilla", "optimized-ring", "optimized-cas"])
    def test_full_and_empty_conditions(self, variant):
        cq = make_completion_queue(variant, capacity=2)
        cq.push(Cqe(1, 0))
        cq.push(Cqe(2, 0))
        with pytest.raises(QueueFullError):
            cq.push(Cqe(3, 0))
        cq.pop()
        cq.pop()
        with pytest.raises(QueueEmptyError):
            cq.pop()

    @pytest.mark.parametrize("variant", ["vanilla", "optimized-ring"])
    def test_ring_keeps_fifo_order_across_wraparounds(self, variant):
        """98 CQEs through 5 slots, two always stored and the ring full at
        every third burst: head and tail wrap around 19 times."""
        cq = make_completion_queue(variant, capacity=5)
        cq.push(Cqe(0, 0))
        cq.push(Cqe(1, 0))
        next_id, drained = 2, []
        for burst in [1, 2, 3] * 16:
            for _ in range(burst):
                cq.push(Cqe(next_id, 0))
                next_id += 1
            assert cq.writable() == (burst < 3)
            drained.extend(cq.pop().coll_id for _ in range(burst))
        assert (cq.written, len(cq)) == (98, 2)
        drained.extend(cq.pop().coll_id for _ in range(2))
        assert drained == list(range(98))

    def test_write_costs_ordered_as_in_fig7c(self):
        vanilla = VanillaRingCQ().write_cost_us()
        optimized_ring = OptimizedRingCQ().write_cost_us()
        cas = OptimizedCasCQ().write_cost_us()
        assert vanilla > optimized_ring > cas
        assert cas == pytest.approx(2.0, abs=0.5)
        assert vanilla == pytest.approx(6.9, abs=0.5)
        assert optimized_ring == pytest.approx(4.8, abs=0.5)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            make_completion_queue("bogus")

    @given(st.lists(st.integers(0, 999), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_cas_cq_never_loses_or_duplicates(self, ids):
        cq = OptimizedCasCQ(capacity=128)
        for coll_id in ids:
            cq.push(Cqe(coll_id, 0))
        drained = sorted(cq.pop().coll_id for _ in ids)
        assert drained == sorted(ids)

    # Pushes are drawn twice as often as pops so runs reach the full queue.
    @given(st.lists(st.sampled_from(["push", "push", "pop", "writable"]),
                    max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_cas_cq_matches_the_linear_slot_scan(self, ops):
        """Pop order, full/empty errors and ``writable`` equal a plain scan
        over every slot: push into the lowest free slot, pop the first
        occupied slot at or after the last pop, wrapping around."""
        cq = OptimizedCasCQ(capacity=8)
        reference = _LinearScanCasCQ(capacity=8)
        for step, op in enumerate(ops):
            if op == "writable":
                assert cq.writable() == reference.writable()
                continue
            outcomes = []
            for queue in (cq, reference):
                try:
                    if op == "push":
                        queue.push(Cqe(step, 0))
                        outcomes.append(None)
                    else:
                        outcomes.append(queue.pop().coll_id)
                except (QueueFullError, QueueEmptyError) as error:
                    outcomes.append(type(error))
            assert outcomes[0] == outcomes[1]
        assert len(cq) == len(reference)


class _LinearScanCasCQ:
    """The O(capacity) slot scan ``OptimizedCasCQ`` must agree with."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.slots = [None] * capacity
        self.scan_pos = 0

    def writable(self):
        return any(slot is None for slot in self.slots)

    def push(self, cqe):
        for index in range(self.capacity):
            if self.slots[index] is None:
                self.slots[index] = cqe
                return cqe
        raise QueueFullError("completion queue is full")

    def pop(self):
        for offset in range(self.capacity):
            index = (self.scan_pos + offset) % self.capacity
            if self.slots[index] is not None:
                cqe, self.slots[index] = self.slots[index], None
                self.scan_pos = (index + 1) % self.capacity
                return cqe
        raise QueueEmptyError("completion queue is empty")

    def __len__(self):
        return sum(slot is not None for slot in self.slots)


class TestContextManagement:
    def test_cache_hit_is_free(self):
        cache = ActiveContextCache(VirtualClock())
        first = cache.load(0)
        second = cache.load(0)
        assert first > 0.0
        assert second == 0.0
        assert cache.stats.cache_hits == 1

    def test_direct_mapped_eviction_saves_dirty_context(self):
        slots = ACTIVE_CONTEXT_SLOTS
        conflicting = slots  # maps to the same slot as coll 0
        cache = ActiveContextCache(VirtualClock())
        cache.load(0)
        cache.slot_for(0).dirty = True  # coll 0 progressed
        cache.load(conflicting)
        assert cache.stats.saves == 1

    def test_lazy_save_skips_unprogressed(self):
        cache = ActiveContextCache(VirtualClock())
        cache.load(0)
        assert cache.save_on_preempt(0, progressed=False) == 0.0
        assert cache.stats.lazy_save_skips == 1
        assert cache.save_on_preempt(0, progressed=True) > 0.0

    def test_memory_overheads_match_sec62(self):
        """Sec. 6.2: ~13KB shared + ~4MB global per block for 1,000 collectives."""
        report = memory_overhead_report(num_collectives=1000)
        assert report["shared_bytes_per_block"] == pytest.approx(13 << 10, rel=0.05)
        assert report["global_bytes_per_block"] == pytest.approx(4 << 20, rel=0.05)
        assert report["global_bytes_shared"] == pytest.approx(11 << 10, rel=0.05)

    def test_memory_overhead_scales_with_collectives(self):
        report_small = memory_overhead_report(num_collectives=10)
        report_large = memory_overhead_report(num_collectives=1000)
        assert report_large["shared_bytes_per_block"] > report_small["shared_bytes_per_block"]
