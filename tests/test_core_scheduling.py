"""Tests for the adaptive stickiness scheduling policies."""

import pytest

from repro.core import DfcclConfig
from repro.core.scheduling import (
    AdaptiveSpinPolicy,
    DaemonStats,
    FifoOrderingPolicy,
    NaiveSpinPolicy,
    PriorityOrderingPolicy,
    TaskEntry,
    make_ordering_policy,
    make_spin_policy,
)


class _FakeInvocation:
    def __init__(self, coll_id):
        self.coll_id = coll_id
        self.invocation_id = coll_id


def make_entry(coll_id, priority=0, arrival=0):
    return TaskEntry(invocation=_FakeInvocation(coll_id), group_rank=0, executor=None,
                     priority=priority, arrival_index=arrival)


class TestTaskQueue:
    """The task queue is a plain list of entries."""

    def test_append_remove(self):
        # Entries compare by identity: removing one of two entries with
        # equal fields removes exactly that one.
        first, second = make_entry(1), make_entry(1)
        queue = [first, second]
        queue.remove(second)
        assert queue == [first] and queue[0] is first
        queue.remove(first)
        assert queue == []
        with pytest.raises(ValueError):
            queue.remove(first)

    def test_priority_sort_is_stable(self):
        queue = [make_entry(1, priority=0, arrival=0),
                 make_entry(2, priority=5, arrival=1),
                 make_entry(3, priority=5, arrival=2)]
        PriorityOrderingPolicy().order(queue)
        assert [entry.coll_id for entry in queue] == [2, 3, 1]
        FifoOrderingPolicy().order(queue)
        assert [entry.coll_id for entry in queue] == [2, 3, 1]


class TestOrderingPolicies:
    def test_fifo_fetches_when_empty_or_stuck(self):
        policy = FifoOrderingPolicy()
        assert policy.should_fetch(queue_empty=True, pass_made_progress=True,
                                   at_pass_start=True)
        assert policy.should_fetch(queue_empty=False, pass_made_progress=False,
                                   at_pass_start=True)
        assert not policy.should_fetch(queue_empty=False, pass_made_progress=True,
                                       at_pass_start=True)

    def test_priority_fetches_every_pass(self):
        policy = PriorityOrderingPolicy()
        assert policy.should_fetch(queue_empty=False, pass_made_progress=True,
                                   at_pass_start=True)

    def test_factory(self):
        assert isinstance(make_ordering_policy(DfcclConfig()), FifoOrderingPolicy)
        assert isinstance(make_ordering_policy(DfcclConfig(ordering="priority")),
                          PriorityOrderingPolicy)


class TestSpinPolicies:
    def test_adaptive_front_gets_largest_threshold(self):
        policy = AdaptiveSpinPolicy()
        queue = [make_entry(coll_id) for coll_id in range(4)]
        policy.assign_initial(queue)
        thresholds = [entry.spin_threshold for entry in queue]
        assert thresholds == sorted(thresholds, reverse=True)
        assert thresholds[0] == 20_000

    def test_adaptive_minimum_floor(self):
        policy = AdaptiveSpinPolicy()
        assert policy.initial_threshold(5) == policy.initial_threshold(50) == 2_000

    def test_adaptive_boost_after_success(self):
        policy = AdaptiveSpinPolicy()
        entry = make_entry(0)
        entry.reset_spin(1_000)
        policy.on_success(entry)
        assert entry.spin_threshold == 20_000
        assert entry.spin_remaining == 20_000

    @pytest.mark.parametrize("policy", [AdaptiveSpinPolicy(), NaiveSpinPolicy()],
                             ids=["adaptive", "naive"])
    def test_steady_success_budget_is_what_every_success_restores(self, policy):
        for threshold in (0, 1, 2_000, 10_000, 19_999, 20_000, 40_000,
                          400_000, 500_000):
            entry = make_entry(0)
            entry.reset_spin(threshold)
            budget = policy.steady_success_budget(entry)
            restored = []
            for _ in range(3):
                policy.on_success(entry)
                restored.append(entry.spin_remaining)
            if budget is None:
                assert restored[0] != restored[1], threshold
            else:
                assert restored == [budget] * 3, threshold

    def test_naive_policy_fixed_threshold(self):
        policy = NaiveSpinPolicy()
        queue = [make_entry(coll_id) for coll_id in range(3)]
        policy.assign_initial(queue)
        assert {entry.spin_threshold for entry in queue} == {10_000}

    def test_factory(self):
        assert isinstance(make_spin_policy(DfcclConfig()), AdaptiveSpinPolicy)
        assert isinstance(make_spin_policy(DfcclConfig(spin_policy="naive")),
                          NaiveSpinPolicy)

    def test_factory_builds_the_fixed_thresholds(self):
        # The policies take no parameters: they read the config module's
        # constants.
        import inspect

        for policy in (AdaptiveSpinPolicy, NaiveSpinPolicy):
            assert not inspect.signature(policy).parameters
        adaptive = make_spin_policy(DfcclConfig())
        assert [adaptive.initial_threshold(position)
                for position in range(5)] == [20_000, 10_000, 5_000, 2_500,
                                              2_000]
        naive = make_spin_policy(DfcclConfig(spin_policy="naive"))
        assert {naive.initial_threshold(position)
                for position in range(5)} == {10_000}

    def test_entry_spin_quantum_resets(self):
        entry = make_entry(0)
        entry.spin_quantum = 8_000
        entry.reset_spin(1_000)
        assert entry.spin_quantum == 500


class TestDaemonStats:
    def test_mean_costs(self):
        stats = DaemonStats()
        assert stats.mean_cqe_write_time_us() == 0.0
        stats.cqes_written = 2
        stats.cqe_write_time_us = 4.0
        assert stats.mean_cqe_write_time_us() == 2.0
        stats.sqes_read = 4
        stats.sqe_read_time_us = 21.2
        assert stats.mean_sqe_read_time_us() == pytest.approx(5.3)

